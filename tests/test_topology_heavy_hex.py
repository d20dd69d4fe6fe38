"""Tests for heavy-hex lattice generation."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import heavy_hex
from repro.topology.heavy_hex import (
    build_heavy_hex,
    bridge_columns,
    heavy_hex_by_qubit_count,
    heavy_hex_qubit_count,
)


class TestBridgeColumns:
    def test_even_bridge_rows_start_at_zero(self):
        assert bridge_columns(10, 0) == [0, 4, 8]

    def test_odd_bridge_rows_start_at_two(self):
        assert bridge_columns(10, 1) == [2, 6]

    def test_pattern_alternates_with_row(self):
        assert bridge_columns(12, 2) == bridge_columns(12, 0)
        assert bridge_columns(12, 3) == bridge_columns(12, 1)

    def test_narrow_lattice_may_have_no_bridges(self):
        assert bridge_columns(2, 1) == []


class TestQubitCount:
    def test_single_row_has_no_bridges(self):
        assert heavy_hex_qubit_count(1, 7) == 7

    def test_counts_dense_and_bridge_qubits(self):
        # 2 rows of 8 plus bridges at columns 0 and 4.
        assert heavy_hex_qubit_count(2, 8) == 18

    def test_count_matches_constructed_lattice(self):
        for rows, cols in [(2, 5), (3, 6), (4, 10), (5, 21)]:
            lattice = build_heavy_hex(rows, cols)
            assert lattice.num_qubits == heavy_hex_qubit_count(rows, cols)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            heavy_hex_qubit_count(0, 5)

    def test_closed_form_matches_bridge_row_loop(self):
        for rows in range(1, 61):
            for cols in range(1, 121):
                assert heavy_hex_qubit_count(rows, cols) == _loop_qubit_count(
                    rows, cols
                )

    def test_lattice_search_unchanged_by_closed_form(self, monkeypatch):
        built = {n: heavy_hex_by_qubit_count(n) for n in range(2, 700)}
        monkeypatch.setattr(heavy_hex, "heavy_hex_qubit_count", _loop_qubit_count)
        for n, lattice in built.items():
            reference = heavy_hex_by_qubit_count(n)
            assert (lattice.rows, lattice.cols) == (reference.rows, reference.cols)
            assert lattice.sites == reference.sites
            assert lattice.edges == reference.edges

    def test_candidate_shapes_match_the_full_scan(self):
        for n in range(2, 700):
            assert list(heavy_hex._candidate_shapes(n)) == list(
                _full_scan_candidate_shapes(n)
            ), n


def _full_scan_candidate_shapes(target: int):
    """The historical candidate scan, which kept walking every wider
    ``cols`` of a row after its first adequate one had too much excess."""
    for rows in range(1, 40):
        for cols in range(2, 80):
            count = heavy_hex_qubit_count(rows, cols)
            if count < target:
                continue
            excess = count - target
            if excess > max(8, target // 4):
                if cols > 2 and heavy_hex_qubit_count(rows, cols - 1) >= target:
                    continue
                if excess > max(12, target // 3):
                    continue
            yield excess, rows, cols
            break


@functools.cache
def _loop_qubit_count(rows: int, cols: int) -> int:
    """The historical per-bridge-row count the closed form replaced
    (memoised here only so the lattice-search comparison stays quick)."""
    total = rows * cols
    for bridge_row in range(rows - 1):
        total += len(bridge_columns(cols, bridge_row))
    return total


class TestBuildHeavyHex:
    def test_small_lattice_structure(self):
        lattice = build_heavy_hex(2, 5)
        # 10 dense + 2 bridges (columns 0 and 4).
        assert lattice.num_qubits == 12
        bridges = lattice.bridge_qubits()
        assert len(bridges) == 2
        for bridge in bridges:
            assert lattice.degree(bridge) == 2

    def test_dense_row_qubits_form_chains(self):
        lattice = build_heavy_hex(1, 6)
        assert lattice.num_edges == 5
        assert lattice.max_degree() == 2

    def test_max_degree_is_three(self):
        lattice = build_heavy_hex(5, 21)
        assert lattice.max_degree() <= 3

    def test_is_connected(self):
        assert build_heavy_hex(4, 9).is_connected()

    def test_boundaries_are_dense_qubits(self):
        lattice = build_heavy_hex(3, 8)
        for qubit in lattice.boundary_right() + lattice.boundary_left():
            assert not lattice.site(qubit).is_bridge
        assert len(lattice.boundary_right()) == 3
        assert len(lattice.boundary_top()) == 8

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_heavy_hex(0, 3)

    def test_graph_is_cached(self):
        lattice = build_heavy_hex(2, 6)
        assert lattice.graph() is lattice.graph()

    def test_relabelled_copy(self):
        lattice = build_heavy_hex(2, 6)
        renamed = lattice.relabelled("my-chip")
        assert renamed.name == "my-chip"
        assert renamed.num_qubits == lattice.num_qubits


class TestHeavyHexByQubitCount:
    @pytest.mark.parametrize("target", [10, 20, 27, 40, 60, 65, 90, 120, 127, 160, 200, 250])
    def test_exact_qubit_count(self, target):
        lattice = heavy_hex_by_qubit_count(target)
        assert lattice.num_qubits == target

    @pytest.mark.parametrize("target", [10, 27, 65, 127, 250])
    def test_connected_and_bounded_degree(self, target):
        lattice = heavy_hex_by_qubit_count(target)
        assert lattice.is_connected()
        assert lattice.max_degree() <= 3

    def test_qubit_indices_are_contiguous(self):
        lattice = heavy_hex_by_qubit_count(33)
        assert sorted(s.index for s in lattice.sites) == list(range(33))
        for u, v in lattice.edges:
            assert 0 <= u < 33 and 0 <= v < 33

    def test_eagle_size_is_two_dimensional(self):
        lattice = heavy_hex_by_qubit_count(127)
        assert lattice.rows >= 3

    def test_custom_name(self):
        assert heavy_hex_by_qubit_count(20, name="falcon-ish").name == "falcon-ish"

    def test_rejects_tiny_targets(self):
        with pytest.raises(ValueError):
            heavy_hex_by_qubit_count(1)

    @settings(max_examples=25, deadline=None)
    @given(target=st.integers(min_value=5, max_value=220))
    def test_property_exact_connected_bounded(self, target):
        """Any requested size yields an exact, connected, degree-<=3 lattice."""
        lattice = heavy_hex_by_qubit_count(target)
        assert lattice.num_qubits == target
        assert lattice.is_connected()
        assert lattice.max_degree() <= 3
        # Edges reference valid qubits and contain no duplicates.
        edges = {tuple(sorted(e)) for e in lattice.edges}
        assert len(edges) == len(lattice.edges)

    def test_no_isolated_qubits(self):
        lattice = heavy_hex_by_qubit_count(75)
        graph = lattice.graph()
        assert min(dict(graph.degree).values()) >= 1

    def test_bridge_qubits_never_adjacent(self):
        lattice = heavy_hex_by_qubit_count(127)
        bridges = set(lattice.bridge_qubits())
        for u, v in lattice.edges:
            assert not (u in bridges and v in bridges)
