"""Property-based tests (Hypothesis) for the compiler invariants.

Four invariant families over random circuits, layouts and topologies:

* every routed two-qubit gate lies on a coupling edge (both routing
  strategies);
* layouts are injective (virtual -> physical is a bijection onto its
  image) on both layout branches, chain and non-chain circuits alike;
* decomposition preserves gate counts in the CX basis (the expansion
  arithmetic of ccx/swap/rzz/cz is exact) and is idempotent;
* :func:`~repro.compiler.pipeline.transpile` reproduces the legacy
  transpile sequence gate-for-gate on random benchmark circuits across
  all three registered topologies.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st

from repro.circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import choose_layout, is_chain_circuit
from repro.compiler.pipeline import ROUTING_STRATEGIES, transpile
from repro.core.architecture import ARCHITECTURES, get_architecture
from repro.topology.coupling import CouplingMap

from tests.test_compiler_pipeline import legacy_transpile

#: Lattice sizes per topology, big enough for every generated circuit.
DEVICE_QUBITS = 24

#: Cached coupling maps (lattice construction dominates example time).
_COUPLINGS: dict[str, CouplingMap] = {}


def coupling_for(topology: str) -> CouplingMap:
    if topology not in _COUPLINGS:
        lattice = get_architecture(topology).lattice(DEVICE_QUBITS)
        _COUPLINGS[topology] = CouplingMap.from_lattice(lattice)
    return _COUPLINGS[topology]


@st.composite
def benchmark_circuits(draw):
    """A random benchmark circuit no wider than the probe devices."""
    name = draw(st.sampled_from(BENCHMARK_NAMES))
    width = draw(st.integers(min_value=4, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return build_benchmark(name, width, seed=seed)


@st.composite
def chain_circuits(draw):
    """A CX chain over a random permutation of the qubits (the line branch)."""
    width = draw(st.integers(min_value=2, max_value=14))
    order = draw(st.permutations(range(width)))
    circuit = QuantumCircuit(width)
    for a, b in zip(order, order[1:]):
        circuit.cx(a, b)
    return circuit


@st.composite
def random_circuits(draw):
    """A random raw circuit over the full gate alphabet."""
    num_qubits = draw(st.integers(min_value=3, max_value=10))
    circuit = QuantumCircuit(num_qubits)
    gate_count = draw(st.integers(min_value=1, max_value=30))
    for _ in range(gate_count):
        kind = draw(st.sampled_from(("h", "t", "rz", "cx", "cz", "swap", "rzz", "ccx")))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=3,
                max_size=3,
                unique=True,
            )
        )
        if kind in ("h", "t"):
            circuit.add(kind, qubits[0])
        elif kind == "rz":
            circuit.rz(0.25, qubits[0])
        elif kind == "rzz":
            circuit.rzz(0.5, qubits[0], qubits[1])
        elif kind == "ccx":
            circuit.ccx(*qubits)
        else:
            circuit.add(kind, qubits[0], qubits[1])
    return circuit


@given(
    circuit=benchmark_circuits(),
    topology=st.sampled_from(tuple(ARCHITECTURES.names())),
    routing=st.sampled_from(tuple(ROUTING_STRATEGIES.names())),
)
@settings(deadline=None)
def test_routed_two_qubit_gates_lie_on_coupling_edges(circuit, topology, routing):
    coupling = coupling_for(topology)
    transpiled = transpile(circuit, coupling, routing=routing)
    edge_set = set(coupling.edges)
    for gate in transpiled.circuit:
        if gate.num_qubits == 2:
            assert (min(gate.qubits), max(gate.qubits)) in edge_set
    for u, v in transpiled.two_qubit_edges:
        assert (min(u, v), max(u, v)) in edge_set
    assert len(transpiled.two_qubit_edges) == transpiled.metrics.num_two_qubit


@given(
    circuit=st.one_of(chain_circuits(), benchmark_circuits()),
    topology=st.sampled_from(tuple(ARCHITECTURES.names())),
)
@settings(deadline=None)
def test_layouts_are_injective(circuit, topology):
    coupling = coupling_for(topology)
    logical = decompose_to_cx_basis(circuit)
    event("chain" if is_chain_circuit(logical) else "non-chain")
    layout = choose_layout(logical, coupling)
    mapping = layout.mapping()
    physicals = list(mapping.values())
    assert len(set(physicals)) == len(physicals)
    assert set(mapping) == set(range(circuit.num_qubits))
    for physical in physicals:
        assert 0 <= physical < coupling.num_qubits


@given(circuit=random_circuits())
@settings(deadline=None)
def test_decompose_preserves_gate_counts_in_cx_basis(circuit):
    before = circuit.count_ops()
    decomposed = decompose_to_cx_basis(circuit)
    after = decomposed.count_ops()

    # No multi-CX-basis gate survives.
    assert not {"ccx", "swap", "rzz", "cz"} & set(after)
    # Exact expansion arithmetic: ccx -> 6 CX, swap -> 3 CX,
    # rzz -> 2 CX + 1 rz, cz -> 1 CX + 2 H.
    expected_cx = (
        before.get("cx", 0)
        + 6 * before.get("ccx", 0)
        + 3 * before.get("swap", 0)
        + 2 * before.get("rzz", 0)
        + before.get("cz", 0)
    )
    assert after.get("cx", 0) == expected_cx
    assert after.get("rz", 0) == before.get("rz", 0) + before.get("rzz", 0)
    assert decomposed.num_two_qubit_gates == expected_cx

    # Idempotence: a CX-basis circuit decomposes to itself.
    again = decompose_to_cx_basis(decomposed)
    assert again.gates == decomposed.gates


@given(
    circuit=benchmark_circuits(),
    topology=st.sampled_from(tuple(ARCHITECTURES.names())),
)
@settings(deadline=None)
def test_default_pipeline_matches_legacy_transpile(circuit, topology):
    coupling = coupling_for(topology)
    transpiled = transpile(circuit, coupling)
    physical, routed, metrics, edges = legacy_transpile(circuit, coupling)
    assert transpiled.circuit.gates == physical.gates
    assert transpiled.metrics == metrics
    assert transpiled.two_qubit_edges == edges
    assert transpiled.num_swaps == routed.num_swaps
    assert transpiled.initial_layout.mapping() == routed.initial_layout.mapping()
