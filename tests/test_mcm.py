"""Tests for multi-chip-module topologies."""

from __future__ import annotations

import pytest

from repro.core.chiplet import ChipletDesign, PAPER_CHIPLET_SIZES
from repro.core.collisions import has_collision
from repro.core.mcm import (
    MAX_SYSTEM_QUBITS,
    MCMDesign,
    mcm_dimensions_for,
    square_dimensions_for,
)


class TestDimensionSelection:
    def test_paper_configuration_count_is_102(self):
        total = sum(len(mcm_dimensions_for(size)) for size in PAPER_CHIPLET_SIZES)
        assert total == 102

    def test_square_factorisation_preferred(self):
        dims = mcm_dimensions_for(10)
        assert (2, 2) in dims
        assert (1, 4) not in dims

    def test_respects_qubit_budget(self):
        for size in PAPER_CHIPLET_SIZES:
            for k, m in mcm_dimensions_for(size):
                assert k * m * size <= MAX_SYSTEM_QUBITS

    def test_unique_total_sizes_per_chiplet(self):
        for size in PAPER_CHIPLET_SIZES:
            totals = [k * m * size for k, m in mcm_dimensions_for(size)]
            assert len(totals) == len(set(totals))

    def test_square_dimensions(self):
        assert square_dimensions_for(20) == [(2, 2), (3, 3), (4, 4), (5, 5)]
        assert square_dimensions_for(250) == []

    def test_rejects_bad_chiplet_size(self):
        with pytest.raises(ValueError):
            mcm_dimensions_for(0)


class TestMCMDesign:
    def test_total_qubits(self, mcm_2x2_20):
        assert mcm_2x2_20.num_qubits == 80
        assert mcm_2x2_20.num_chips == 4

    def test_links_are_inter_chip(self, mcm_2x2_20):
        qc = mcm_2x2_20.chiplet.num_qubits
        for link in mcm_2x2_20.links:
            assert link.chip_a != link.chip_b
            assert link.global_a // qc == link.chip_a
            assert link.global_b // qc == link.chip_b

    def test_link_qubits_are_distinct(self, mcm_2x2_20):
        """No qubit participates in more than one inter-chip link."""
        assert mcm_2x2_20.num_link_qubits == 2 * mcm_2x2_20.num_links

    def test_link_endpoints_have_different_labels(self, mcm_2x2_20):
        labels = mcm_2x2_20.allocation.labels
        for link in mcm_2x2_20.links:
            assert labels[link.global_a] != labels[link.global_b]

    def test_ideal_mcm_is_collision_free(self, mcm_2x2_20):
        allocation = mcm_2x2_20.allocation
        assert not has_collision(allocation, allocation.ideal_frequencies)

    def test_coupling_map_is_connected(self, mcm_2x2_20):
        coupling = mcm_2x2_20.coupling_map()
        assert coupling.is_connected()
        assert coupling.num_qubits == 80
        assert set(coupling.link_edges) == mcm_2x2_20.link_edges()

    def test_chip_slices_partition_the_module(self, mcm_2x2_20):
        covered = []
        for chip in range(mcm_2x2_20.num_chips):
            chip_slice = mcm_2x2_20.chip_slice(chip)
            covered.extend(range(chip_slice.start, chip_slice.stop))
        assert covered == list(range(mcm_2x2_20.num_qubits))

    def test_chip_offset_bounds(self, mcm_2x2_20):
        with pytest.raises(IndexError):
            mcm_2x2_20.chip_offset(4)

    def test_rejects_single_chip_module(self, chiplet_20):
        with pytest.raises(ValueError):
            MCMDesign.build(chiplet_20, 1, 1)

    @pytest.mark.parametrize("size", [10, 40, 90])
    def test_non_square_modules_build(self, size):
        design = ChipletDesign.build(size)
        mcm = MCMDesign.build(design, 1, 3)
        assert mcm.num_qubits == 3 * size
        assert mcm.coupling_map().is_connected()
        assert not has_collision(mcm.allocation, mcm.allocation.ideal_frequencies)

    def test_every_adjacent_chip_pair_is_linked(self, chiplet_10):
        mcm = MCMDesign.build(chiplet_10, 3, 3)
        linked_pairs = {
            tuple(sorted((link.chip_a, link.chip_b))) for link in mcm.links
        }
        expected = set()
        for row in range(3):
            for col in range(3):
                chip = row * 3 + col
                if col < 2:
                    expected.add(tuple(sorted((chip, chip + 1))))
                if row < 2:
                    expected.add(tuple(sorted((chip, chip + 3))))
        assert expected <= linked_pairs
