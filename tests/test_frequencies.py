"""Tests for the three-frequency heavy-hex allocation."""

from __future__ import annotations

import numpy as np
import pytest

from graph_helpers import to_networkx
from repro.core.frequencies import (
    DEFAULT_STEP_GHZ,
    FrequencySpec,
    HeavyHexThreeFrequencyPlan,
    allocation_from_labels,
    dense_label,
    heavy_hex_labels,
)
from repro.topology.heavy_hex import build_heavy_hex, heavy_hex_by_qubit_count


class TestFrequencySpec:
    def test_default_frequencies(self):
        spec = FrequencySpec()
        assert spec.frequencies == pytest.approx((5.0, 5.06, 5.12))

    def test_custom_step(self):
        spec = FrequencySpec(step_ghz=0.04)
        assert spec.frequency_for_label(2) == pytest.approx(5.08)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            FrequencySpec().frequency_for_label(3)

    def test_anharmonicity_is_negative(self):
        assert FrequencySpec().anharmonicity_ghz < 0


class TestDenseLabel:
    def test_pattern_period_four(self):
        labels = [dense_label(0, c) for c in range(8)]
        assert labels == [1, 2, 0, 2, 1, 2, 0, 2]

    def test_odd_rows_shift_by_two(self):
        assert dense_label(1, 0) == dense_label(0, 2)

    def test_phase_shifts_pattern(self):
        assert dense_label(0, 0, phase=2) == dense_label(0, 2)


class TestHeavyHexLabels:
    def test_bridges_are_f2(self):
        lattice = build_heavy_hex(3, 9)
        labels = heavy_hex_labels(lattice)
        for bridge in lattice.bridge_qubits():
            assert labels[bridge] == 2

    def test_neighbours_never_share_labels(self):
        lattice = heavy_hex_by_qubit_count(127)
        labels = heavy_hex_labels(lattice)
        for u, v in lattice.edges:
            assert labels[u] != labels[v]

    def test_f2_targets_have_distinct_labels(self):
        """Every F2 control's neighbours carry different (F0/F1) labels."""
        lattice = heavy_hex_by_qubit_count(65)
        labels = heavy_hex_labels(lattice)
        graph = to_networkx(lattice)
        for qubit in range(lattice.num_qubits):
            if labels[qubit] != 2:
                continue
            neighbour_labels = [labels[n] for n in graph.neighbors(qubit)]
            assert len(neighbour_labels) <= 2
            assert len(set(neighbour_labels)) == len(neighbour_labels)
            assert 2 not in neighbour_labels


class TestAllocation:
    def test_ideal_frequencies_follow_labels(self, lattice_27, spec):
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice_27, spec=spec)
        for index, label in enumerate(allocation.labels):
            assert allocation.ideal_frequencies[index] == pytest.approx(
                spec.frequency_for_label(int(label))
            )

    def test_control_is_higher_frequency_endpoint(self, allocation_27):
        for control, target in allocation_27.directed_edges:
            assert (
                allocation_27.ideal_frequencies[control]
                > allocation_27.ideal_frequencies[target]
            )

    def test_edge_count_preserved(self, lattice_27, allocation_27):
        assert allocation_27.num_edges == lattice_27.num_edges

    def test_control_triples_share_a_control(self, allocation_27):
        directed = {tuple(edge) for edge in allocation_27.directed_edges.tolist()}
        for control, target_a, target_b in allocation_27.control_triples:
            assert (control, target_a) in directed
            assert (control, target_b) in directed
            assert target_a != target_b

    def test_label_counts_cover_all_qubits(self, allocation_27):
        counts = allocation_27.label_counts()
        assert sum(counts.values()) == allocation_27.num_qubits
        assert set(counts) <= {0, 1, 2}

    def test_only_f2_qubits_act_as_controls(self, lattice_27, allocation_27):
        """Within a monolithic lattice every CR control carries F2."""
        for control, _ in allocation_27.directed_edges:
            assert allocation_27.labels[control] == 2

    def test_allocation_from_labels_validates_range(self):
        with pytest.raises(ValueError):
            allocation_from_labels(np.array([0, 3]), [(0, 1)])

    def test_allocation_from_labels_validates_shape(self):
        with pytest.raises(ValueError):
            allocation_from_labels(np.array([[0, 1]]), [(0, 1)])

    def test_default_step_matches_paper_optimum(self):
        assert DEFAULT_STEP_GHZ == pytest.approx(0.06)
