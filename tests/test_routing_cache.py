"""Parity and invalidation tests for the process-wide routing cache.

The cache contract (``repro.compiler.routing`` module docstring): cached
and cold noise-aware routes are bit-identical, lazily computed Dijkstra
rows equal the historical eager all-pairs rows, and any change to an
edge-error map misses into a fresh entry rather than replaying stale
trees.  The LRU bound and eviction order are the shared helper's,
tested in ``tests/test_lru_caches.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout
from repro.compiler.routing import (
    RoutingWeights,
    clear_routing_cache,
    route_circuit_noise_aware,
    routing_cache_stats,
    routing_weights,
)
from repro.topology.coupling import CouplingMap

from compile_reference import eager_predecessor_matrix


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_routing_cache()
    yield
    clear_routing_cache()


def line(n: int) -> CouplingMap:
    return CouplingMap(num_qubits=n, edges=[(i, i + 1) for i in range(n - 1)])


@st.composite
def routing_case(draw):
    """A connected coupling map, an error map, and a CX-only circuit."""
    n = draw(st.integers(min_value=4, max_value=10))
    edges = {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
    for u, v in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=6,
        )
    ):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    errors = {
        edge: draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False))
        for edge in edges
    }
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            min_size=1,
            max_size=8,
        )
    )
    circuit = QuantumCircuit(n)
    for a, b in pairs:
        circuit.cx(a, b)
    return CouplingMap(num_qubits=n, edges=edges), errors, circuit


def routes_equal(a, b) -> bool:
    return (
        a.circuit.gates == b.circuit.gates
        and a.two_qubit_edges == b.two_qubit_edges
        and a.num_swaps == b.num_swaps
    )


class TestCachedRoutingParity:
    @settings(max_examples=60, deadline=None)
    @given(case=routing_case())
    def test_warm_cache_routes_bit_identical_to_cold(self, case):
        coupling, errors, circuit = case
        layout = Layout({i: i for i in range(coupling.num_qubits)})
        clear_routing_cache()
        cold = route_circuit_noise_aware(circuit, coupling, layout, errors)
        assert routing_cache_stats()["misses"] == 1
        warm = route_circuit_noise_aware(circuit, coupling, layout, errors)
        stats = routing_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] == 1
        assert routes_equal(cold, warm)

    @settings(max_examples=60, deadline=None)
    @given(case=routing_case())
    def test_lazy_rows_match_eager_all_pairs(self, case):
        coupling, errors, _ = case
        clear_routing_cache()
        lazy = routing_weights(coupling, errors)
        rows = {
            source: lazy.predecessor_row(source).copy()
            for source in range(coupling.num_qubits)
        }
        clear_routing_cache()
        eager = routing_weights(coupling, errors)
        matrix = eager_predecessor_matrix(eager)
        for source, row in rows.items():
            np.testing.assert_array_equal(row, matrix[source])

    def test_eager_route_equals_lazy_route(self):
        # Pre-filling every tree (the historical behaviour) must not
        # change what the router emits.
        coupling = line(8)
        errors = {(i, i + 1): 0.01 * (i + 1) for i in range(7)}
        circuit = QuantumCircuit(8)
        circuit.cx(0, 7)
        circuit.cx(2, 5)
        layout = Layout({i: i for i in range(8)})
        lazy = route_circuit_noise_aware(circuit, coupling, layout, errors)
        clear_routing_cache()
        eager_predecessor_matrix(routing_weights(coupling, errors))
        eager = route_circuit_noise_aware(circuit, coupling, layout, errors)
        assert routes_equal(lazy, eager)


class TestInvalidation:
    def test_edge_error_change_misses(self):
        coupling = line(5)
        errors = {(i, i + 1): 0.01 for i in range(4)}
        first = routing_weights(coupling, errors)
        recalibrated = dict(errors)
        recalibrated[(1, 2)] = 0.5
        second = routing_weights(coupling, recalibrated)
        assert second is not first
        stats = routing_cache_stats()
        assert stats["misses"] == 2 and stats["entries"] == 2

    def test_identical_content_shares_one_entry(self):
        coupling = line(5)
        errors = {(i, i + 1): 0.01 for i in range(4)}
        first = routing_weights(coupling, errors)
        # A *different* dict object with equal content must hit.
        second = routing_weights(line(5), dict(errors))
        assert second is first
        assert routing_cache_stats()["hits"] == 1

    def test_stale_trees_never_replayed_after_recalibration(self):
        # Degrading the direct edge must reroute, not replay the old path.
        coupling = CouplingMap(num_qubits=4, edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        layout = Layout({i: i for i in range(4)})
        clean = {(0, 1): 0.001, (0, 2): 0.001, (1, 3): 0.001, (2, 3): 0.001}
        direct = route_circuit_noise_aware(circuit, coupling, layout, clean)
        assert direct.two_qubit_edges == [(0, 1)]
        poisoned = dict(clean)
        poisoned[(0, 1)] = 0.5
        detour = route_circuit_noise_aware(circuit, coupling, layout, poisoned)
        assert (0, 1) not in detour.two_qubit_edges

    def test_clear_resets_entries_and_counters(self):
        routing_weights(line(4), {(0, 1): 0.1})
        clear_routing_cache()
        stats = routing_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
            "sources_computed": 0,
        }


class TestRoutingWeights:
    def test_sources_computed_counts_lazy_rows(self):
        weights = routing_weights(line(6), {(0, 1): 0.01})
        assert weights.sources_computed == 0
        weights.predecessor_row(0)
        weights.predecessor_row(0)
        weights.predecessor_row(3)
        assert weights.sources_computed == 2
        assert routing_cache_stats()["sources_computed"] == 2

    def test_edge_cost_orientation_invariant(self):
        # Costs are keyed once per coupling, low endpoint first, whichever
        # orientation the error map spells.
        weights = routing_weights(line(3), {(1, 0): 0.1, (1, 2): 0.2})
        assert sorted(weights._cost) == [(0, 1), (1, 2)]
        assert weights._cost[(1, 2)] > weights._cost[(0, 1)]

    def test_standalone_construction_matches_cache(self):
        coupling = line(5)
        errors = {(i, i + 1): 0.05 for i in range(4)}
        cached = routing_weights(coupling, errors)
        from repro.compiler.routing import _edge_costs

        standalone = RoutingWeights(coupling.num_qubits, *_edge_costs(coupling, errors))
        np.testing.assert_array_equal(
            eager_predecessor_matrix(standalone), eager_predecessor_matrix(cached)
        )
