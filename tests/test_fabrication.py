"""Tests for the fabrication-variation model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fabrication import (
    FabricationModel,
    SIGMA_AS_FABRICATED_GHZ,
    SIGMA_LASER_TUNED_GHZ,
    SIGMA_SCALING_TARGET_GHZ,
)


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
