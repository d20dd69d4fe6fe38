"""QAOA MaxCut benchmark (paper Section VII-A).

One QAOA layer on a random 3-regular graph: a ZZ phase-separation term per
graph edge (compiled as CX - RZ - CX) followed by an RX mixer on every
qubit.  The random-regular interaction graph makes the benchmark moderately
communication-bound.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit

__all__ = ["qaoa_maxcut"]


def qaoa_maxcut(
    num_qubits: int,
    layers: int = 1,
    degree: int = 3,
    seed: int | None = 0,
    gamma: float = 0.7,
    beta: float = 0.3,
) -> QuantumCircuit:
    """Build a QAOA MaxCut circuit on a random regular graph.

    Parameters
    ----------
    num_qubits:
        Number of graph vertices / qubits (>= 4).
    layers:
        Number of QAOA layers ``p``.
    degree:
        Regularity of the random problem graph (reduced automatically when
        ``num_qubits`` is too small or parity forbids it).
    seed:
        Seed for the problem-graph sampler.
    gamma, beta:
        Phase-separation and mixer angles (fixed representative values).
    """
    if num_qubits < 4:
        raise ValueError("QAOA MaxCut needs at least 4 qubits")
    if layers < 1:
        raise ValueError("QAOA needs at least one layer")
    effective_degree = min(degree, num_qubits - 1)
    if (num_qubits * effective_degree) % 2:
        effective_degree -= 1
    # The one networkx caller in ``repro``; imported here so that only
    # processes which build QAOA circuits load it.
    import networkx as nx

    graph = nx.random_regular_graph(effective_degree, num_qubits, seed=seed)

    circuit = QuantumCircuit(num_qubits=num_qubits, name="qaoa")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for layer in range(layers):
        angle = gamma * (layer + 1)
        for u, v in sorted(graph.edges()):
            circuit.cx(u, v)
            circuit.rz(2.0 * angle, v)
            circuit.cx(u, v)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta * (layer + 1), qubit)
    return circuit
