"""Tests for the pass-pipeline compiler and the noise-aware router."""

from __future__ import annotations

import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.circuits.benchmarks.ghz import ghz
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import LAYOUT_METHODS, Layout, choose_layout
from repro.compiler.pipeline import (
    CompileContext,
    DecomposePass,
    LayoutPass,
    MetricsPass,
    Pass,
    PassPipeline,
    ROUTING_STRATEGIES,
    RoutePass,
    SwapExpandPass,
    default_pipeline,
)
from repro.compiler.routing import route_circuit, route_circuit_noise_aware
from repro.compiler.transpile import transpile
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count

from compile_reference import reference_transpile


def legacy_transpile(circuit, target, layout_method="auto"):
    """The seed-state transpile sequence (``compile_reference``)."""
    reference = reference_transpile(circuit, target, layout_method=layout_method)
    return (
        reference.circuit,
        reference.routed,
        reference.metrics,
        reference.two_qubit_edges,
    )


class TestRegistries:
    def test_registered_strategies(self):
        assert LAYOUT_METHODS == ("auto", "line", "dense", "noise")
        assert ROUTING_STRATEGIES.names() == ["basic", "noise-aware"]

    def test_unknown_strategy_gets_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'noise-aware'"):
            ROUTING_STRATEGIES.get("noise_aware")
        with pytest.raises(KeyError, match="did you mean 'dense'"):
            default_pipeline(layout_method="dens")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            ROUTING_STRATEGIES.register("basic", lambda: None)

    def test_choose_layout_rejects_unknown_method(self):
        coupling = CouplingMap(num_qubits=3, edges=[(0, 1), (1, 2)])
        with pytest.raises(
            KeyError,
            match=r"unknown layout method 'densest'; did you mean 'dense'\? "
            r"\(known: auto, line, dense, noise\)",
        ):
            choose_layout(ghz(3), coupling, method="densest")

    def test_membership_and_len(self):
        assert "basic" in ROUTING_STRATEGIES
        assert "kagome" not in ROUTING_STRATEGIES
        assert len(ROUTING_STRATEGIES) >= 2


class TestPassProtocol:
    def test_builtin_passes_satisfy_protocol(self):
        for stage in (
            DecomposePass(), LayoutPass(), RoutePass(), SwapExpandPass(), MetricsPass()
        ):
            assert isinstance(stage, Pass)

    def test_pipeline_rejects_non_passes(self):
        with pytest.raises(TypeError, match="Pass protocol"):
            PassPipeline([DecomposePass(), object()])

    def test_custom_pass_runs_in_sequence(self):
        class CountingPass:
            name = "count"

            def run(self, context):
                context.properties["two_qubit"] = context.circuit.num_two_qubit_gates

        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        pipeline = default_pipeline(extra_passes=[CountingPass()])
        assert pipeline.pass_names() == [
            "decompose", "layout", "route", "swap-expand", "metrics", "count",
        ]
        context = pipeline.run_context(build_benchmark("qaoa", 12, seed=3), coupling)
        assert context.properties["two_qubit"] == context.metrics.num_two_qubit

    def test_route_before_layout_raises(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        pipeline = PassPipeline([DecomposePass(), RoutePass()])
        with pytest.raises(ValueError, match="layout"):
            pipeline.run_context(ghz(5), coupling)

    def test_partial_pipeline_rejected_by_run(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        pipeline = PassPipeline([DecomposePass()])
        with pytest.raises(ValueError, match="run_context"):
            pipeline.run(ghz(5), coupling)


class TestDefaultPipelineEquivalence:
    @pytest.mark.parametrize(
        "bench_name,width", [("qaoa", 16), ("bv", 20), ("adder", 14)]
    )
    def test_pipeline_matches_legacy_sequence(self, bench_name, width):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        circuit = build_benchmark(bench_name, width, seed=3)
        transpiled = transpile(circuit, coupling)
        physical, routed, metrics, edges = legacy_transpile(circuit, coupling)
        assert transpiled.circuit.gates == physical.gates
        assert transpiled.metrics == metrics
        assert transpiled.two_qubit_edges == edges
        assert transpiled.num_swaps == routed.num_swaps
        assert transpiled.initial_layout.mapping() == routed.initial_layout.mapping()

    def test_pipeline_matches_legacy_on_device(self, small_study):
        mcm = small_study.mcm_result(20, (2, 2))
        circuit = build_benchmark("qaoa", 50, seed=2)
        transpiled = transpile(circuit, mcm.best_device)
        physical, routed, metrics, edges = legacy_transpile(circuit, mcm.best_device)
        assert transpiled.circuit.gates == physical.gates
        assert transpiled.two_qubit_edges == edges

    def test_unknown_routing_rejected_before_compiling(self):
        with pytest.raises(KeyError, match="unknown routing"):
            default_pipeline(routing="lookahead")
        with pytest.raises(KeyError, match="unknown layout"):
            default_pipeline(layout_method="densest")

    def test_context_for_bare_coupling_has_no_errors(self):
        coupling = CouplingMap(num_qubits=3, edges=[(0, 1), (1, 2)])
        context = CompileContext.for_target(ghz(3), coupling)
        assert context.edge_errors is None


class TestNoiseAwareRouting:
    def line(self, n):
        return CouplingMap(num_qubits=n, edges=[(i, i + 1) for i in range(n - 1)])

    def test_falls_back_to_basic_without_errors(self):
        coupling = self.line(5)
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = Layout({0: 0, 1: 4})
        basic = route_circuit(circuit, coupling, layout)
        aware = route_circuit_noise_aware(circuit, coupling, layout, edge_errors=None)
        assert aware.circuit.gates == basic.circuit.gates
        assert aware.two_qubit_edges == basic.two_qubit_edges

    def test_detours_around_poisoned_edge(self):
        # A 2x3 grid: the direct (0,1) edge is terrible; routing 0-1
        # should detour through the clean bottom row.
        #   0 - 1    (0,1) error 0.5, every other edge 0.001
        #   |   |
        #   2 - 3
        coupling = CouplingMap(
            num_qubits=4, edges=[(0, 1), (0, 2), (1, 3), (2, 3)]
        )
        errors = {(0, 1): 0.5, (0, 2): 0.001, (1, 3): 0.001, (2, 3): 0.001}
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        layout = Layout({i: i for i in range(4)})
        basic = route_circuit(circuit, coupling, layout)
        aware = route_circuit_noise_aware(circuit, coupling, layout, errors)
        assert basic.num_swaps == 0
        assert basic.two_qubit_edges == [(0, 1)]
        # The noise-aware route pays SWAPs to avoid the poisoned edge.
        assert aware.num_swaps > 0
        assert (0, 1) not in aware.two_qubit_edges

    def test_routed_gates_respect_connectivity(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(27))
        errors = {edge: 0.01 + 0.001 * i for i, edge in enumerate(coupling.edges)}
        circuit = build_benchmark("qaoa", 16, seed=4)
        logical = decompose_to_cx_basis(circuit)
        layout = choose_layout(logical, coupling, method="dense")
        routed = route_circuit_noise_aware(logical, coupling, layout, errors)
        edge_set = set(coupling.edges)
        for u, v in routed.two_qubit_edges:
            assert (min(u, v), max(u, v)) in edge_set
        # Routing preserves the non-SWAP gate sequence per virtual qubit.
        assert routed.circuit.num_two_qubit_gates == (
            logical.num_two_qubit_gates + routed.num_swaps
        )

    def test_rejects_multi_qubit_gates(self):
        coupling = self.line(3)
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(ValueError, match="decomposed"):
            route_circuit_noise_aware(
                circuit, coupling, Layout({i: i for i in range(3)}), {(0, 1): 0.1}
            )

    def test_transpile_with_noise_aware_strategy(self, small_study):
        mcm = small_study.mcm_result(20, (2, 2))
        device = mcm.best_device
        circuit = build_benchmark("bv", 40)
        transpiled = transpile(circuit, device, routing="noise-aware")
        for u, v in transpiled.two_qubit_edges:
            assert (min(u, v), max(u, v)) in device.edge_errors
        assert len(transpiled.two_qubit_edges) == transpiled.metrics.num_two_qubit

    def test_device_and_mapping_paths_agree(self, small_study):
        # The Device fast path (cached edge_error_arrays) must route
        # identically to the raw-mapping path.
        device = small_study.mcm_result(20, (2, 2)).best_device
        circuit = decompose_to_cx_basis(build_benchmark("qaoa", 40, seed=2))
        layout = choose_layout(circuit, device.coupling, method="dense")
        via_device = route_circuit_noise_aware(circuit, device.coupling, layout, device)
        via_dict = route_circuit_noise_aware(
            circuit, device.coupling, layout, dict(device.edge_errors)
        )
        assert via_device.circuit.gates == via_dict.circuit.gates
        assert via_device.two_qubit_edges == via_dict.two_qubit_edges
        assert via_device.num_swaps == via_dict.num_swaps

    def test_superset_error_map_creates_no_phantom_couplings(self):
        # A device whose error map carries an extra non-coupling entry
        # must not let the router treat that entry as a routable edge.
        import numpy as np

        from repro.device.device import Device

        coupling = self.line(3)
        device = Device(
            name="superset",
            coupling=coupling,
            frequencies_ghz=np.full(3, 5.0),
            labels=np.zeros(3, dtype=int),
            edge_errors={(0, 1): 0.01, (1, 2): 0.01, (0, 2): 1e-6},
        )
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        routed = route_circuit_noise_aware(
            circuit, coupling, Layout({i: i for i in range(3)}), device
        )
        real_edges = set(coupling.edges)
        for u, v in routed.two_qubit_edges:
            assert (min(u, v), max(u, v)) in real_edges

    def test_dead_edge_still_routable(self):
        coupling = self.line(3)
        errors = {(0, 1): 1.0, (1, 2): 0.01}
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        routed = route_circuit_noise_aware(
            circuit, coupling, Layout({i: i for i in range(3)}), errors
        )
        # Only route crosses the dead edge; it must still be used.
        assert routed.two_qubit_edges
