"""Tests for the fabrication-variation model.

``sample_batch`` scales a standard-normal draw in place, while the
committed goldens were made with ``ideal + normal(0, sigma, size)``.
:class:`TestNormalScalingIdentity` property-tests that the two are
bitwise equal, generator state included, for every sigma (zero too,
where the raw noise differs only in the sign of zero and the add
normalises it), so a NumPy internals change fails here rather than as
golden drift; CI runs this suite on the oldest supported NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabrication import (
    FabricationModel,
    SIGMA_AS_FABRICATED_GHZ,
    SIGMA_LASER_TUNED_GHZ,
    SIGMA_SCALING_TARGET_GHZ,
)
from repro.stats.streaming import chunk_layout, chunk_seed
from stats_reference import materialize_seeded_batch

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
SIGMAS = st.floats(min_value=1e-6, max_value=16.0, allow_nan=False)
ROWS = st.integers(min_value=1, max_value=40)
COLS = st.integers(min_value=1, max_value=32)


class TestConstants:
    def test_paper_values(self):
        assert SIGMA_AS_FABRICATED_GHZ == pytest.approx(0.1323)
        assert SIGMA_LASER_TUNED_GHZ == pytest.approx(0.014)
        assert SIGMA_SCALING_TARGET_GHZ == pytest.approx(0.006)

    def test_precision_ordering(self):
        assert SIGMA_SCALING_TARGET_GHZ < SIGMA_LASER_TUNED_GHZ < SIGMA_AS_FABRICATED_GHZ


class TestFabricationModel:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            FabricationModel(sigma_ghz=-0.01)

    def test_batch_shape(self, allocation_27, rng):
        model = FabricationModel(0.014)
        batch = model.sample_batch(allocation_27, 32, rng)
        assert batch.shape == (32, allocation_27.num_qubits)

    def test_rejects_non_positive_batch(self, allocation_27, rng):
        with pytest.raises(ValueError):
            FabricationModel(0.014).sample_batch(allocation_27, 0, rng)

    def test_zero_sigma_reproduces_ideal(self, allocation_27, rng):
        model = FabricationModel(0.0)
        batch = model.sample_batch(allocation_27, 4, rng)
        assert np.allclose(batch, allocation_27.ideal_frequencies)

    def test_sample_statistics_match_sigma(self, allocation_27):
        rng = np.random.default_rng(0)
        sigma = 0.05
        model = FabricationModel(sigma)
        batch = model.sample_batch(allocation_27, 4000, rng)
        offsets = batch - allocation_27.ideal_frequencies
        assert abs(offsets.mean()) < 0.002
        assert offsets.std() == pytest.approx(sigma, rel=0.05)

    def test_materialize_preallocated_matches_concatenated_chunks(
        self, allocation_27, fabrication
    ):
        batch, chunk = 130, 50
        materialized = materialize_seeded_batch(
            allocation_27, fabrication, batch_size=batch, chunk_size=chunk, seed=7
        )
        chunks = [
            fabrication.sample_batch(
                allocation_27, length, np.random.default_rng(chunk_seed(7, index))
            )
            for index, length in enumerate(chunk_layout(batch, chunk))
        ]
        reference = np.concatenate(chunks, axis=0)
        assert materialized.tobytes() == reference.tobytes()
        assert materialized.flags.c_contiguous
        assert materialized.shape == (batch, allocation_27.num_qubits)


class TestNormalScalingIdentity:
    @given(seed=SEEDS, sigma=SIGMAS, rows=ROWS, cols=COLS)
    def test_normal_is_scaled_standard_normal_bitwise(self, seed, sigma, rows, cols):
        """normal(0, sigma) == sigma * standard_normal, bytes and state."""
        a_rng = np.random.default_rng(seed)
        b_rng = np.random.default_rng(seed)
        a = a_rng.normal(0.0, sigma, size=(rows, cols))
        b = sigma * b_rng.standard_normal((rows, cols))
        assert a.tobytes() == b.tobytes()
        assert a_rng.bit_generator.state == b_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS, cols=COLS)
    def test_affine_form_matches_legacy_for_every_sigma(self, seed, sigma, rows, cols):
        """ideal + normal(0, sigma) == (z *= sigma) += ideal, incl. sigma=0.

        At sigma=0 the raw noise arrays differ in zero sign (0.0 * z is
        -0.0 for negative z) but the add normalises it, so the fabricated
        frequencies — the only thing downstream code sees — are bitwise
        identical.
        """
        ideal = np.linspace(5.0, 5.12, cols)
        legacy_rng = np.random.default_rng(seed)
        legacy = ideal + legacy_rng.normal(0.0, sigma, size=(rows, cols))
        split_rng = np.random.default_rng(seed)
        split = split_rng.standard_normal((rows, cols))
        split *= sigma
        split += ideal
        assert legacy.tobytes() == split.tobytes()
        assert legacy_rng.bit_generator.state == split_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS)
    @settings(max_examples=15)
    def test_sample_batch_matches_legacy_normal_draw(
        self, allocation_27, seed, sigma, rows
    ):
        """sample_batch reproduces the historical draw."""
        fab = FabricationModel(sigma_ghz=sigma)
        legacy_rng = np.random.default_rng(seed)
        legacy = allocation_27.ideal_frequencies[np.newaxis, :] + legacy_rng.normal(
            0.0, sigma, size=(rows, allocation_27.num_qubits)
        )
        new_rng = np.random.default_rng(seed)
        new = fab.sample_batch(allocation_27, rows, new_rng)
        assert legacy.tobytes() == new.tobytes()
        assert legacy_rng.bit_generator.state == new_rng.bit_generator.state


def test_fig4_leaves_sample_bank_stats_at_zero():
    """Nothing is banked, so the zero counters a benchmark cache reset
    checks read zero after a real fabrication workload too."""
    from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
    from repro.core.sample_bank import clear_sample_bank, sample_bank_stats

    clear_sample_bank()
    run_fig4_yield_sweep(sizes=(10, 27), batch_size=20)
    assert sample_bank_stats() == {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
