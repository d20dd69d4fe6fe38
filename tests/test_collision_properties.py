"""Property-based tests (Hypothesis) for the seven collision criteria.

The scalar path (:func:`find_collisions`, per-device, readable) and the
vectorised path (:func:`collision_free_mask`, per-batch, fast) implement
the same Table I semantics twice.  These properties pin them to each
other over random frequency batches, random anharmonicities and random
thresholds — far beyond the hand-crafted cases of the example-based
suite — plus the structural invariants chunked estimators rely on:
row-permutation equivariance and zero-noise ideal devices being
collision-free.

Profiles: ``dev`` (default, 25 examples/property), ``ci`` (200),
``thorough`` (1000) — see ``tests/conftest.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

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

# Built once at import: hypothesis re-runs test bodies hundreds of times,
# and the lattice search is not free.
_LATTICE_10 = heavy_hex_by_qubit_count(10)
_ALLOCATION_10 = HeavyHexThreeFrequencyPlan().allocate(_LATTICE_10)

# Plans with more directed edges (70 and 144) than the mask kernel's
# first edge block (32), so a batch crosses block boundaries.
_BLOCKED_PLANS = {
    size: HeavyHexThreeFrequencyPlan().allocate(heavy_hex_by_qubit_count(size))
    for size in (65, 127)
}

# The Table I demonstration device: control Q1 coupled to targets Q0, Q2.
_TRIPLE_EDGES = [(1, 0), (1, 2)]


def _triple_allocation(anharmonicity: float, step: float) -> "FrequencyAllocation":
    spec = FrequencySpec(step_ghz=step, anharmonicity_ghz=anharmonicity)
    return allocation_from_labels(np.array([0, 2, 1]), _TRIPLE_EDGES, spec=spec)


def _thresholds_strategy():
    window = st.floats(0.0, 0.08, allow_nan=False, allow_infinity=False)
    return st.builds(
        CollisionThresholds,
        type1_ghz=window,
        type2_ghz=window,
        type3_ghz=window,
        type5_ghz=window,
        type6_ghz=window,
        type7_ghz=window,
    )


def _frequency_batch(num_qubits: int, max_batch: int = 6):
    return npst.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_batch), st.just(num_qubits)),
        elements=st.floats(4.4, 5.8, allow_nan=False, allow_infinity=False),
    )


class TestScalarBatchParityProperties:
    @given(frequencies=_frequency_batch(10), thresholds=_thresholds_strategy())
    def test_random_batches_random_thresholds(self, frequencies, thresholds):
        """Exact scalar/batched agreement on arbitrary frequency batches."""
        mask = collision_free_mask(_ALLOCATION_10, frequencies, thresholds)
        for row in range(frequencies.shape[0]):
            scalar = find_collisions(_ALLOCATION_10, frequencies[row], thresholds)
            assert mask[row] == scalar.is_collision_free

    @given(
        frequencies=_frequency_batch(3),
        thresholds=_thresholds_strategy(),
        anharmonicity=st.floats(-0.5, -0.1, allow_nan=False),
        step=st.floats(0.02, 0.09, allow_nan=False),
    )
    def test_parity_with_random_anharmonicity(
        self, frequencies, thresholds, anharmonicity, step
    ):
        """Parity holds for any (anharmonicity, step) spec, on the
        control-with-two-targets device where criteria 5-7 live."""
        allocation = _triple_allocation(anharmonicity, step)
        mask = collision_free_mask(allocation, frequencies, thresholds)
        for row in range(frequencies.shape[0]):
            report = find_collisions(allocation, frequencies[row], thresholds)
            assert mask[row] == report.is_collision_free
            assert has_collision(allocation, frequencies[row], thresholds) != mask[row]
            counts = count_collisions(allocation, frequencies[row], thresholds)
            assert set(counts) == set(COLLISION_TYPES)
            assert (sum(counts.values()) == 0) == mask[row]

    @given(
        frequencies=_frequency_batch(10, max_batch=8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_row_permutation_equivariance(self, frequencies, seed):
        """Permuting the devices of a batch permutes the mask, nothing else."""
        permutation = np.random.default_rng(seed).permutation(frequencies.shape[0])
        mask = collision_free_mask(_ALLOCATION_10, frequencies)
        permuted = collision_free_mask(_ALLOCATION_10, frequencies[permutation])
        assert np.array_equal(permuted, mask[permutation])

    @given(frequencies=_frequency_batch(10))
    def test_batch_equals_row_by_row(self, frequencies):
        """One batched call == the same rows evaluated one at a time."""
        batched = collision_free_mask(_ALLOCATION_10, frequencies)
        rowwise = np.array(
            [
                collision_free_mask(_ALLOCATION_10, frequencies[i])[0]
                for i in range(frequencies.shape[0])
            ]
        )
        assert np.array_equal(batched, rowwise)


def _scaled_thresholds(scale: float) -> CollisionThresholds:
    base = CollisionThresholds()
    return CollisionThresholds(
        *(getattr(base, f.name) * scale for f in dataclasses.fields(base))
    )


def _first_pair_violations(allocation, reports) -> np.ndarray:
    """Per report, the index of the first directed edge a pair criterion
    flags (``num_edges`` when none does)."""
    edge_index = {
        tuple(edge): index for index, edge in enumerate(allocation.directed_edges.tolist())
    }
    return np.array(
        [
            min(
                (edge_index[qubits] for ctype, qubits in report.collisions if ctype <= 4),
                default=allocation.num_edges,
            )
            for report in reports
        ]
    )


class TestBlockedKernelParity:
    """The edge-blocked kernel against the scalar report on wide plans.

    Near-ideal devices survive several blocks: 1- and 10-row batches
    screen every edge at once, 500-row batches cross block boundaries
    and, once fewer than 64 devices are left, the switch to one block.
    """

    @given(
        size=st.sampled_from(sorted(_BLOCKED_PLANS)),
        rows=st.sampled_from((1, 10, 500)),
        sigma=st.floats(0.004, 0.03, allow_nan=False),
        scale=st.floats(0.5, 1.5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_mask_matches_scalar_report(self, size, rows, sigma, scale, seed):
        allocation = _BLOCKED_PLANS[size]
        thresholds = _scaled_thresholds(scale)
        rng = np.random.default_rng(seed)
        frequencies = allocation.ideal_frequencies + rng.normal(
            0.0, sigma, size=(rows, allocation.num_qubits)
        )
        mask = collision_free_mask(allocation, frequencies, thresholds)
        expected = [
            find_collisions(allocation, row, thresholds).is_collision_free
            for row in frequencies
        ]
        assert mask.tolist() == expected

    @pytest.mark.parametrize(
        "sigma,blocks_at_full_width", [(0.014, True), (0.025, False)]
    )
    def test_fixed_batches_cross_blocks_and_the_small_batch_switch(
        self, sigma, blocks_at_full_width
    ):
        """At 0.014 GHz at least 64 of 500 devices outlive the 32- and
        64-edge blocks; at 0.025 GHz fewer than 64 (but some) outlive the
        first, so the other 112 edges go in one block."""
        allocation = _BLOCKED_PLANS[127]
        thresholds = CollisionThresholds()
        rng = np.random.default_rng(1)
        frequencies = allocation.ideal_frequencies + rng.normal(
            0.0, sigma, size=(500, allocation.num_qubits)
        )
        reports = [find_collisions(allocation, row, thresholds) for row in frequencies]
        first = _first_pair_violations(allocation, reports)
        if blocks_at_full_width:
            assert (first >= 96).sum() >= 64
        else:
            assert 0 < (first >= 32).sum() < 64
        mask = collision_free_mask(allocation, frequencies, thresholds)
        assert mask.tolist() == [report.is_collision_free for report in reports]


class TestIdealDeviceProperties:
    @given(
        size=st.sampled_from((5, 10, 16, 27)),
        step=st.floats(0.030, 0.075, allow_nan=False),
        batch=st.integers(1, 4),
    )
    @settings(max_examples=20)
    def test_zero_noise_ideal_allocation_is_collision_free(self, size, step, batch):
        """A fabricated device that hits its design targets exactly has no
        collision, for any lattice size and any paper-regime detuning step
        (the regime where 3-step and 4-step sums stay clear of the type-7
        anharmonicity window)."""
        lattice = heavy_hex_by_qubit_count(size)
        allocation = HeavyHexThreeFrequencyPlan().allocate(
            lattice, spec=FrequencySpec(step_ghz=step)
        )
        frequencies = np.tile(allocation.ideal_frequencies, (batch, 1))
        assert collision_free_mask(allocation, frequencies).all()
        report = find_collisions(allocation, allocation.ideal_frequencies)
        assert report.is_collision_free

    @given(thresholds=_thresholds_strategy())
    def test_zero_thresholds_only_type4_remains(self, thresholds):
        """With every window at zero, only the region-based type-4
        criterion can fire — and it never does on an ideal device."""
        zero = CollisionThresholds(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        frequencies = _ALLOCATION_10.ideal_frequencies
        assert collision_free_mask(_ALLOCATION_10, frequencies, zero)[0]
        # and widening windows can only ever flag more devices, not fewer
        rng = np.random.default_rng(1)
        batch = frequencies + rng.normal(0.0, 0.05, size=(5, 10))
        tight = collision_free_mask(_ALLOCATION_10, batch, zero)
        loose = collision_free_mask(_ALLOCATION_10, batch, thresholds)
        assert np.all(loose <= tight)


class TestThresholdMonotonicity:
    @given(
        scale_a=st.floats(0.0, 2.0, allow_nan=False),
        scale_b=st.floats(0.0, 2.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_wider_windows_flag_supersets(self, scale_a, scale_b, seed):
        """If every window of A is <= the matching window of B, devices
        collision-free under B are collision-free under A."""
        lo, hi = sorted((scale_a, scale_b))
        base = CollisionThresholds()
        tight = CollisionThresholds(*(getattr(base, f) * lo for f in (
            "type1_ghz", "type2_ghz", "type3_ghz", "type5_ghz", "type6_ghz", "type7_ghz"
        )))
        loose = CollisionThresholds(*(getattr(base, f) * hi for f in (
            "type1_ghz", "type2_ghz", "type3_ghz", "type5_ghz", "type6_ghz", "type7_ghz"
        )))
        rng = np.random.default_rng(seed)
        batch = _ALLOCATION_10.ideal_frequencies + rng.normal(0.0, 0.03, size=(6, 10))
        free_loose = collision_free_mask(_ALLOCATION_10, batch, loose)
        free_tight = collision_free_mask(_ALLOCATION_10, batch, tight)
        assert np.all(free_loose <= free_tight)
