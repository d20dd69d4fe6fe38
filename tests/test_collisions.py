"""Tests for the seven Table I collision criteria."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collisions import (
    COLLISION_TYPES,
    CollisionThresholds,
    collision_free_mask,
    count_collisions,
    find_collisions,
    has_collision,
)
from repro.core.frequencies import (
    FrequencySpec,
    HeavyHexThreeFrequencyPlan,
    allocation_from_labels,
)
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


@pytest.fixture(scope="module")
def three_qubit_allocation():
    """Control Q1 (F2) coupled to targets Q0 (F0) and Q2 (F1)."""
    return allocation_from_labels(np.array([0, 2, 1]), [(1, 0), (1, 2)])


def _ideal(allocation):
    return allocation.ideal_frequencies.copy()


class TestIdealPattern:
    def test_ideal_heavy_hex_is_collision_free(self, allocation_27):
        report = find_collisions(allocation_27, allocation_27.ideal_frequencies)
        assert report.is_collision_free
        assert report.num_collisions == 0

    @pytest.mark.parametrize("step", [0.04, 0.05, 0.06, 0.07])
    def test_ideal_pattern_collision_free_across_steps(self, step):
        lattice = heavy_hex_by_qubit_count(40)
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice, spec=FrequencySpec(step_ghz=step))
        assert not has_collision(allocation, allocation.ideal_frequencies)

    def test_large_step_triggers_type7(self):
        """A 0.11 GHz step makes 2f_i + a = f_j + f_k hold exactly."""
        lattice = heavy_hex_by_qubit_count(40)
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice, spec=FrequencySpec(step_ghz=0.11))
        counts = count_collisions(allocation, allocation.ideal_frequencies)
        assert counts[7] > 0


class TestIndividualCriteria:
    def test_type1_near_null_neighbours(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        freqs[0] = freqs[1] + 0.010  # control/target nearly resonant
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[1] >= 1

    def test_type2_half_anharmonicity(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        alpha = three_qubit_allocation.anharmonicities[1]
        freqs[0] = freqs[1] + alpha / 2.0  # f_i + a/2 == f_j
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[2] >= 1

    def test_type3_anharmonicity_resonance(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        alpha = three_qubit_allocation.anharmonicities[0]
        freqs[0] = freqs[1] + alpha  # f_i == f_j + a
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[3] >= 1

    def test_type4_target_above_control(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        freqs[0] = freqs[1] + 0.05  # target drifted above the control
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[4] >= 1

    def test_type4_target_below_straddling_regime(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        freqs[0] = freqs[1] - 0.40  # below f_i + a
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[4] >= 1

    def test_type5_degenerate_targets(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        freqs[2] = freqs[0] + 0.005  # the two targets become near-resonant
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[5] >= 1

    def test_type6_target_anharmonicity_resonance(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        alpha = three_qubit_allocation.anharmonicities[2]
        freqs[2] = freqs[0] - alpha  # f_k == f_j - a
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[6] >= 1

    def test_type7_two_photon_resonance(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        alpha = three_qubit_allocation.anharmonicities[1]
        freqs[0] = 2 * freqs[1] + alpha - freqs[2]
        counts = count_collisions(three_qubit_allocation, freqs)
        assert counts[7] >= 1

    def test_report_lists_participating_qubits(self, three_qubit_allocation):
        freqs = _ideal(three_qubit_allocation)
        freqs[0] = freqs[1]
        report = find_collisions(three_qubit_allocation, freqs)
        types = {ctype for ctype, _ in report.collisions}
        assert 1 in types
        for _, qubits in report.collisions:
            assert all(0 <= q < 3 for q in qubits)

    def test_counts_by_type_covers_all_types(self, three_qubit_allocation):
        counts = count_collisions(three_qubit_allocation, _ideal(three_qubit_allocation))
        assert set(counts) == set(COLLISION_TYPES)
        assert all(v == 0 for v in counts.values())


class TestThresholds:
    def test_wider_thresholds_detect_more(self, allocation_27, rng):
        freqs = allocation_27.ideal_frequencies + rng.normal(0, 0.03, allocation_27.num_qubits)
        strict = CollisionThresholds()
        loose = CollisionThresholds(type1_ghz=0.05, type5_ghz=0.05)
        strict_count = find_collisions(allocation_27, freqs, strict).num_collisions
        loose_count = find_collisions(allocation_27, freqs, loose).num_collisions
        assert loose_count >= strict_count

    def test_frequency_shape_validation(self, allocation_27):
        with pytest.raises(ValueError):
            find_collisions(allocation_27, np.zeros(3))


class TestVectorisedMask:
    def test_mask_matches_scalar_checker(self, allocation_27, rng):
        batch = allocation_27.ideal_frequencies + rng.normal(
            0, 0.02, size=(64, allocation_27.num_qubits)
        )
        mask = collision_free_mask(allocation_27, batch)
        for row in range(batch.shape[0]):
            assert mask[row] == (not has_collision(allocation_27, batch[row]))

    def test_single_device_input(self, allocation_27):
        mask = collision_free_mask(allocation_27, allocation_27.ideal_frequencies)
        assert mask.shape == (1,)
        assert bool(mask[0])

    def test_shape_validation(self, allocation_27):
        with pytest.raises(ValueError):
            collision_free_mask(allocation_27, np.zeros((4, 3)))

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.floats(min_value=0.0, max_value=0.05),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_mask_consistent_with_scalar(self, scale, seed):
        """Vectorised and scalar collision checks always agree."""
        allocation = allocation_from_labels(np.array([0, 2, 1, 2, 0]),
                                            [(1, 0), (1, 2), (3, 2), (3, 4)])
        rng = np.random.default_rng(seed)
        batch = allocation.ideal_frequencies + rng.normal(0, scale, size=(8, 5))
        mask = collision_free_mask(allocation, batch)
        scalar = np.array([not has_collision(allocation, row) for row in batch])
        assert np.array_equal(mask, scalar)

    def test_zero_noise_yields_all_collision_free(self, allocation_27):
        batch = np.tile(allocation_27.ideal_frequencies, (10, 1))
        assert collision_free_mask(allocation_27, batch).all()

    def test_huge_noise_yields_no_survivors(self, allocation_27, rng):
        batch = allocation_27.ideal_frequencies + rng.normal(
            0, 0.2, size=(50, allocation_27.num_qubits)
        )
        assert collision_free_mask(allocation_27, batch).sum() <= 2
