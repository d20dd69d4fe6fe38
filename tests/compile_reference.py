"""The historical Gate-per-gate compile passes, kept as parity references.

The compiler now works on the gate columns of ``QuantumCircuit``:
decomposition and SWAP expansion are index expansions, both routers emit
integer columns, and ``gate_metrics`` takes both depths from one walk.
The bodies below are the passes those replaced, over the circuit
storage they walked (``GateCircuit``, a ``Gate`` list), kept verbatim
apart from returning plain records: they build one ``Gate`` per gate and
iterate the list.  ``test_compile_parity.py`` and
``benchmarks/bench_compiler.py`` compare the shipped passes against them;
nothing in ``src/`` imports this module.

``eager_predecessor_matrix`` is the historical all-pairs Dijkstra run of
``RoutingWeights``, which the routing-cache parity tests and the legacy
arm of the routing-cache benchmark still need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import shortest_path

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.compiler.layout import Layout, choose_layout
from repro.compiler.metrics import GateMetrics
from repro.compiler.routing import RoutingWeights, routing_weights
from repro.device.device import Device
from repro.topology.coupling import CouplingMap


@dataclass
class GateCircuit:
    """The historical circuit storage: an ordered ``Gate`` list."""

    num_qubits: int
    name: str = "circuit"
    gates: list[Gate] = field(default_factory=list)

    @classmethod
    def of(cls, circuit: QuantumCircuit) -> "GateCircuit":
        return cls(circuit.num_qubits, circuit.name, circuit.gates)

    def __iter__(self):
        return iter(self.gates)

    def add(self, name: str, *qubits: int, params: tuple[float, ...] = ()) -> None:
        """Build, validate and append one gate (``QuantumCircuit.add`` then)."""
        self.append(Gate(name=name, qubits=tuple(qubits), params=params))

    def append(self, gate: Gate) -> None:
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(f"gate {gate.name!r} addresses qubit {qubit}")
        self.gates.append(gate)


@dataclass
class ReferenceRoute:
    """What the historical routers returned (``RoutedCircuit`` then)."""

    circuit: GateCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0
    two_qubit_edges: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class ReferenceCompile:
    """The historical pipeline's outputs for one circuit."""

    circuit: GateCircuit
    routed: ReferenceRoute
    metrics: GateMetrics
    two_qubit_edges: list[tuple[int, int]]


# ---------------------------------------------------------------------- #
# Decomposition
# ---------------------------------------------------------------------- #
def _decompose_ccx(circuit: GateCircuit, a: int, b: int, target: int) -> None:
    circuit.add("h", target)
    circuit.add("cx", b, target)
    circuit.add("tdg", target)
    circuit.add("cx", a, target)
    circuit.add("t", target)
    circuit.add("cx", b, target)
    circuit.add("tdg", target)
    circuit.add("cx", a, target)
    circuit.add("t", b)
    circuit.add("t", target)
    circuit.add("h", target)
    circuit.add("cx", a, b)
    circuit.add("t", a)
    circuit.add("tdg", b)
    circuit.add("cx", a, b)


def _decompose_swap(circuit: GateCircuit, a: int, b: int) -> None:
    circuit.add("cx", a, b)
    circuit.add("cx", b, a)
    circuit.add("cx", a, b)


def reference_decompose_to_cx_basis(
    circuit: GateCircuit, keep_swaps: bool = False
) -> GateCircuit:
    """The per-gate basis rewrite ``decompose_to_cx_basis`` must match."""
    result = GateCircuit(num_qubits=circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        if gate.name == "ccx":
            _decompose_ccx(result, *gate.qubits)
        elif gate.name == "swap" and not keep_swaps:
            _decompose_swap(result, *gate.qubits)
        elif gate.name == "rzz":
            a, b = gate.qubits
            result.add("cx", a, b)
            result.add("rz", b, params=(float(gate.params[0]),))
            result.add("cx", a, b)
        elif gate.name == "cz":
            a, b = gate.qubits
            result.add("h", b)
            result.add("cx", a, b)
            result.add("h", b)
        else:
            result.append(gate)
    return result


def reference_decompose_swaps(circuit: GateCircuit) -> GateCircuit:
    """Expand every ``swap`` into 3 CX, leaving other gates untouched."""
    result = GateCircuit(num_qubits=circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        if gate.name == "swap":
            _decompose_swap(result, *gate.qubits)
        else:
            result.append(gate)
    return result


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #
def reference_route_circuit(
    circuit: GateCircuit, coupling: CouplingMap, layout: Layout
) -> ReferenceRoute:
    """The Gate-per-gate hop-distance router ``route_circuit`` must match."""
    distance = coupling.distance_matrix()
    working = layout.copy()
    physical = GateCircuit(num_qubits=coupling.num_qubits, name=circuit.name)
    routed = ReferenceRoute(
        circuit=physical,
        initial_layout=layout.copy(),
        final_layout=working,
    )

    for gate in circuit:
        if gate.num_qubits == 1:
            physical.append(
                Gate(gate.name, (working.physical(gate.qubits[0]),), gate.params)
            )
            continue
        if gate.num_qubits != 2:
            raise ValueError(
                f"gate {gate.name!r} must be decomposed to the CX basis before routing"
            )
        virtual_a, virtual_b = gate.qubits
        p_a = working.physical(virtual_a)
        p_b = working.physical(virtual_b)
        while distance[p_a, p_b] > 1:
            best_a = min(coupling.neighbors(p_a), key=lambda n: (distance[n, p_b], n))
            best_b = min(coupling.neighbors(p_b), key=lambda n: (distance[n, p_a], n))
            if distance[best_a, p_b] <= distance[best_b, p_a]:
                mover, step = p_a, best_a
            else:
                mover, step = p_b, best_b
            physical.add("swap", mover, step)
            routed.num_swaps += 1
            routed.two_qubit_edges.append((min(mover, step), max(mover, step)))
            working.swap_physical(mover, step)
            p_a = working.physical(virtual_a)
            p_b = working.physical(virtual_b)
        physical.append(Gate(gate.name, (p_a, p_b), gate.params))
        routed.two_qubit_edges.append((min(p_a, p_b), max(p_a, p_b)))

    return routed


def _weighted_path(predecessors: np.ndarray, source: int, target: int) -> list[int]:
    path = [target]
    node = target
    while node != source:
        node = int(predecessors[node])
        if node < 0:
            raise ValueError(
                f"qubits {source} and {target} are not connected in the coupling map"
            )
        path.append(node)
    path.reverse()
    return path


def reference_route_circuit_noise_aware(
    circuit: GateCircuit,
    coupling: CouplingMap,
    layout: Layout,
    edge_errors=None,
) -> ReferenceRoute:
    """The Gate-per-gate error-weighted router ``route_circuit_noise_aware``
    must match."""
    if not edge_errors:
        return reference_route_circuit(circuit, coupling, layout)

    weights = routing_weights(coupling, edge_errors)
    working = layout.copy()
    physical = GateCircuit(num_qubits=coupling.num_qubits, name=circuit.name)
    routed = ReferenceRoute(
        circuit=physical,
        initial_layout=layout.copy(),
        final_layout=working,
    )

    for gate in circuit:
        if gate.num_qubits == 1:
            physical.append(
                Gate(gate.name, (working.physical(gate.qubits[0]),), gate.params)
            )
            continue
        if gate.num_qubits != 2:
            raise ValueError(
                f"gate {gate.name!r} must be decomposed to the CX basis before routing"
            )
        virtual_a, virtual_b = gate.qubits
        p_a = working.physical(virtual_a)
        p_b = working.physical(virtual_b)
        path = _weighted_path(weights.predecessor_row(p_a), p_a, p_b)
        while len(path) > 2:
            cost_a = weights._cost[min(path[0], path[1]), max(path[0], path[1])]
            cost_b = weights._cost[min(path[-1], path[-2]), max(path[-1], path[-2])]
            if (cost_a, path[0]) <= (cost_b, path[-1]):
                mover, step = path[0], path[1]
                path = path[1:]
            else:
                mover, step = path[-1], path[-2]
                path = path[:-1]
            physical.add("swap", mover, step)
            routed.num_swaps += 1
            routed.two_qubit_edges.append((min(mover, step), max(mover, step)))
            working.swap_physical(mover, step)
        p_a, p_b = working.physical(virtual_a), working.physical(virtual_b)
        physical.append(Gate(gate.name, (p_a, p_b), gate.params))
        routed.two_qubit_edges.append((min(p_a, p_b), max(p_a, p_b)))

    return routed


def eager_predecessor_matrix(weights: RoutingWeights) -> np.ndarray:
    """Every source's Dijkstra tree in one batched call.

    The historical all-pairs run: the rows also replace (identically) any
    the weights computed lazily, so later routes read the eager rows.
    """
    _, pred = shortest_path(
        weights._matrix, method="D", directed=False, return_predecessors=True
    )
    with weights._lock:
        for source in range(weights.num_qubits):
            weights._pred[source] = pred[source]
    return pred


# ---------------------------------------------------------------------- #
# SWAP expansion and metrics
# ---------------------------------------------------------------------- #
def reference_swap_expand(routed: ReferenceRoute) -> tuple[GateCircuit, list]:
    """The historical ``SwapExpandPass``: the physical circuit and the
    edge trace with each SWAP's edge three times."""
    edges: list[tuple[int, int]] = []
    for gate, edge in zip(
        (g for g in routed.circuit if g.num_qubits == 2), routed.two_qubit_edges
    ):
        edges.extend([edge, edge, edge] if gate.name == "swap" else [edge])
    return reference_decompose_swaps(routed.circuit), edges


def reference_depth(circuit: GateCircuit, two_qubit_only: bool = False) -> int:
    """The historical per-Gate depth walk."""
    frontier = [0] * circuit.num_qubits
    for gate in circuit.gates:
        counts = 0 if (two_qubit_only and gate.num_qubits < 2) else 1
        level = max(frontier[q] for q in gate.qubits) + counts
        for q in gate.qubits:
            frontier[q] = level
    return max(frontier) if frontier else 0


def reference_gate_metrics(circuit: GateCircuit) -> GateMetrics:
    """Table II metrics from two Gate-list counts and two depth walks."""
    return GateMetrics(
        num_one_qubit=sum(1 for g in circuit.gates if g.is_one_qubit),
        num_two_qubit=sum(1 for g in circuit.gates if g.is_two_qubit),
        two_qubit_critical_path=reference_depth(circuit, two_qubit_only=True),
        depth=reference_depth(circuit),
    )


def reference_transpile(
    circuit: QuantumCircuit,
    target: Device | CouplingMap,
    routing: str = "basic",
) -> ReferenceCompile:
    """Decompose, lay out (shipped ``choose_layout``), route, expand and
    measure with the historical passes."""
    device = target if isinstance(target, Device) else None
    coupling = target.coupling if device is not None else target
    logical = reference_decompose_to_cx_basis(GateCircuit.of(circuit))
    # The shipped layout pass reads the shipped circuit container.
    layout = choose_layout(
        QuantumCircuit(logical.num_qubits).extend(logical.gates), coupling
    )
    if routing == "basic":
        routed = reference_route_circuit(logical, coupling, layout)
    else:
        routed = reference_route_circuit_noise_aware(logical, coupling, layout, device)
    physical, edges = reference_swap_expand(routed)
    return ReferenceCompile(
        circuit=physical,
        routed=routed,
        metrics=reference_gate_metrics(physical),
        two_qubit_edges=edges,
    )
