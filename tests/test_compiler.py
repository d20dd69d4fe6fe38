"""Tests for the compiler: decomposition, layout, routing, transpilation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.benchmarks.ghz import ghz
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import Layout, choose_layout, find_long_path, is_chain_circuit
from repro.compiler.metrics import gate_metrics
from repro.compiler.routing import route_circuit
from repro.compiler.pipeline import transpile
from statevector_reference import simulate
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


@pytest.fixture(scope="module")
def line5() -> CouplingMap:
    return CouplingMap(num_qubits=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


class TestDecompose:
    def test_ccx_becomes_cx_basis(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        decomposed = decompose_to_cx_basis(circuit)
        assert decomposed.count_ops().get("ccx", 0) == 0
        assert decomposed.count_ops()["cx"] == 6

    def test_ccx_decomposition_preserves_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).ry(0.3, 1).x(2).ccx(0, 1, 2)
        decomposed = decompose_to_cx_basis(circuit)
        original = simulate(circuit).amplitudes
        rebuilt = simulate(decomposed).amplitudes
        # Equal up to a global phase.
        overlap = abs(np.vdot(original, rebuilt))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_swap_decomposition_preserves_unitary(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 2).swap(0, 1)
        decomposed = decompose_to_cx_basis(circuit)
        assert decomposed.count_ops().get("swap", 0) == 0
        overlap = abs(np.vdot(simulate(circuit).amplitudes, simulate(decomposed).amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_rzz_and_cz_are_rewritten(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.4, 0, 1).cz(0, 1)
        decomposed = decompose_to_cx_basis(circuit)
        names = set(decomposed.count_ops())
        assert "rzz" not in names and "cz" not in names

    def test_keep_swaps_option(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        assert decompose_to_cx_basis(circuit, keep_swaps=True).count_ops()["swap"] == 1


class TestLayout:
    def test_layout_is_bijective(self):
        layout = Layout({0: 3, 1: 5, 2: 7})
        assert layout.physical(1) == 5
        assert layout.virtual(7) == 2
        assert layout.virtual(4) is None

    def test_layout_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1})

    def test_swap_physical(self):
        layout = Layout({0: 1, 1: 2})
        layout.swap_physical(1, 3)
        assert layout.physical(0) == 3
        assert layout.virtual(1) is None

    def test_is_chain_circuit(self):
        assert is_chain_circuit(ghz(6))
        star = QuantumCircuit(4)
        star.cx(0, 1).cx(0, 2).cx(0, 3)
        assert not is_chain_circuit(star)

    def test_find_long_path_on_heavy_hex(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        path = find_long_path(coupling, 20)
        assert path is not None
        assert len(path) == 20
        assert len(set(path)) == 20
        for a, b in zip(path, path[1:]):
            assert coupling.has_edge(a, b)

    def test_choose_layout_chain_uses_path(self, line5):
        layout = choose_layout(ghz(5), line5)
        physical = [layout.physical(v) for v in range(5)]
        assert sorted(physical) == list(range(5))

    def test_choose_layout_dense_connected(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(40))
        circuit = build_benchmark("qaoa", 20, seed=1)
        layout = choose_layout(circuit, coupling)
        assert len({layout.physical(v) for v in range(20)}) == 20

    def test_choose_layout_rejects_oversized_circuit(self, line5):
        with pytest.raises(ValueError):
            choose_layout(ghz(6), line5)


class TestRouting:
    def test_adjacent_gates_need_no_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 1}))
        assert routed.num_swaps == 0
        assert routed.two_qubit_edges == [(0, 1)]

    def test_distant_gates_insert_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 4}))
        assert routed.num_swaps == 3
        # Every emitted two-qubit gate respects the connectivity.
        for u, v in routed.two_qubit_edges:
            assert line5.has_edge(u, v)

    def test_single_qubit_gates_follow_the_mapping(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).h(0)
        routed = route_circuit(circuit, line5, Layout({0: 0, 1: 4}))
        h_gates = [g for g in routed.circuit if g.name == "h"]
        assert len(h_gates) == 1
        # Qubit 0 may have moved; the H must land on its current host.
        assert h_gates[0].qubits[0] == routed.final_layout.physical(0)

    def test_routing_rejects_multi_qubit_gates(self, line5):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(ValueError):
            route_circuit(circuit, line5, Layout({0: 0, 1: 1, 2: 2}))

    def test_routing_between_disconnected_qubits_raises(self):
        # The SWAP walk must fail on an unreachable pair, not spin forever.
        coupling = CouplingMap(num_qubits=4, edges=[(0, 1), (2, 3)])
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        with pytest.raises(ValueError, match="not connected"):
            route_circuit(circuit, coupling, Layout({i: i for i in range(4)}))

    def test_routed_circuit_preserves_semantics(self):
        """Routing + SWAP decomposition implements the same state up to relabelling."""
        coupling = CouplingMap(num_qubits=4, edges=[(0, 1), (1, 2), (2, 3)])
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 3).cx(1, 2).rz(0.5, 3).cx(0, 2)
        layout = Layout({i: i for i in range(4)})
        routed = route_circuit(circuit, coupling, layout)
        physical = decompose_to_cx_basis(routed.circuit)

        original = simulate(circuit)
        mapped = simulate(physical)
        # Compare marginals through the final layout (virtual -> physical).
        for virtual in range(4):
            physical_qubit = routed.final_layout.physical(virtual)
            assert mapped.marginal_probability(physical_qubit, 1) == pytest.approx(
                original.marginal_probability(virtual, 1), abs=1e-9
            )


class TestTranspile:
    def test_transpile_respects_connectivity(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("qaoa", 20, seed=2)
        transpiled = transpile(circuit, coupling)
        edge_set = set(coupling.edges)
        for gate in transpiled.circuit:
            if gate.num_qubits == 2:
                assert (min(gate.qubits), max(gate.qubits)) in edge_set

    def test_two_qubit_edge_list_matches_gate_count(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("bv", 20)
        transpiled = transpile(circuit, coupling)
        assert len(transpiled.two_qubit_edges) == transpiled.metrics.num_two_qubit

    def test_chain_circuits_route_cheaply(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(65))
        transpiled = transpile(ghz(50), coupling)
        assert transpiled.metrics.num_two_qubit < 80

    def test_metrics_consistency(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark("adder", 20)
        transpiled = transpile(circuit, coupling)
        metrics = gate_metrics(transpiled.circuit)
        assert metrics.num_two_qubit == transpiled.metrics.num_two_qubit
        assert metrics.two_qubit_critical_path <= metrics.num_two_qubit
        assert metrics == transpiled.metrics

    def test_transpile_onto_device_uses_error_map(self, small_study):
        mcm = small_study.mcm_result(20, (2, 2))
        assert mcm.best_device is not None
        circuit = build_benchmark("bv", 30)
        transpiled = transpile(circuit, mcm.best_device)
        for u, v in transpiled.two_qubit_edges:
            assert (min(u, v), max(u, v)) in mcm.best_device.edge_errors
