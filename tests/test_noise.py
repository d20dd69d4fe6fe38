"""Tests for the gate-error models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.noise import (
    EmpiricalCXModel,
    LinkErrorModel,
    LINK_MEAN_INFIDELITY,
    LINK_MEDIAN_INFIDELITY,
    ON_CHIP_MEAN_INFIDELITY,
)


@pytest.fixture(scope="module")
def simple_model() -> EmpiricalCXModel:
    detunings = np.array([0.05, 0.07, 0.02, 0.15, 0.18, 0.32, 0.35])
    errors = np.array([0.010, 0.012, 0.030, 0.008, 0.009, 0.020, 0.025])
    return EmpiricalCXModel.fit(detunings, errors)


class TestEmpiricalCXModel:
    def test_fit_builds_expected_bins(self, simple_model):
        assert set(simple_model.bins) == {0, 1, 3}
        assert simple_model.num_observations == 7

    def test_fit_validates_inputs(self):
        with pytest.raises(ValueError):
            EmpiricalCXModel.fit(np.array([0.1]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            EmpiricalCXModel.fit(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            EmpiricalCXModel.fit(np.array([0.1]), np.array([0.01]), bin_width_ghz=0)

    def test_sample_comes_from_matching_bin(self, simple_model, rng):
        values = simple_model.sample_many(np.full(20, 0.06), rng)
        assert set(values) <= {0.010, 0.012, 0.030}

    def test_sample_falls_back_to_nearest_bin(self, simple_model, rng):
        # Bin 2 (0.2-0.3 GHz) is empty; bins 1 and 3 are equally near and
        # the lower one is used.
        values = simple_model.sample_many(np.full(20, 0.25), rng)
        assert set(values) <= {0.008, 0.009}

    def test_sample_many_shape_and_membership(self, simple_model, rng):
        detunings = np.array([[0.05, 0.15], [0.33, 0.02]])
        values = simple_model.sample_many(detunings, rng)
        assert values.shape == detunings.shape
        assert set(np.ravel(values)) <= {0.010, 0.012, 0.030, 0.008, 0.009, 0.020, 0.025}

    def test_mean_and_median(self, simple_model):
        assert simple_model.mean() == pytest.approx(np.mean([0.010, 0.012, 0.030, 0.008, 0.009, 0.020, 0.025]))
        assert simple_model.median() == pytest.approx(0.012)

    def test_mean_for_specific_bin(self, simple_model):
        centre = (1 + 0.5) * simple_model.bin_width_ghz  # bin 1: 0.1-0.2 GHz
        assert simple_model.bin_means()[centre] == pytest.approx(np.mean([0.008, 0.009]))

    def test_bin_means_keys_are_bin_centres(self, simple_model):
        centres = sorted(simple_model.bin_means())
        assert centres == pytest.approx([0.05, 0.15, 0.35])

    def test_negative_detunings_treated_as_absolute(self, simple_model, rng):
        values = simple_model.sample_many(np.array([-0.05, -0.16, -0.33]), rng)
        assert values[0] in {0.010, 0.012, 0.030}
        assert values[1] in {0.008, 0.009}
        assert values[2] in {0.020, 0.025}


class TestLinkErrorModel:
    def test_matches_published_statistics(self, link_model):
        assert link_model.mean == pytest.approx(LINK_MEAN_INFIDELITY, rel=1e-6)
        assert link_model.median == pytest.approx(LINK_MEDIAN_INFIDELITY, rel=1e-6)

    def test_link_to_chip_ratio(self, link_model):
        assert link_model.mean / ON_CHIP_MEAN_INFIDELITY == pytest.approx(4.17, abs=0.1)

    def test_sampled_statistics(self, link_model):
        rng = np.random.default_rng(0)
        samples = link_model.sample(rng, size=40_000)
        assert np.mean(samples) == pytest.approx(link_model.mean, rel=0.05)
        assert np.median(samples) == pytest.approx(link_model.median, rel=0.05)

    def test_scalar_sampling(self, link_model, rng):
        value = link_model.sample(rng)
        assert isinstance(value, float)
        assert 0 < value <= link_model.max_infidelity

    def test_samples_are_clipped(self):
        wild = LinkErrorModel(mu=0.0, sigma=2.0, max_infidelity=0.5)
        rng = np.random.default_rng(1)
        assert np.max(wild.sample(rng, size=1000)) <= 0.5

    @settings(max_examples=20, deadline=None)
    @given(factor=st.floats(min_value=0.1, max_value=3.0))
    def test_property_scaling_preserves_shape(self, factor):
        """Rescaling to a new mean scales the median by the same factor."""
        base = LinkErrorModel.from_mean_median()
        scaled = base.scaled_to_mean(base.mean * factor)
        assert scaled.mean == pytest.approx(base.mean * factor, rel=1e-9)
        assert scaled.median == pytest.approx(base.median * factor, rel=1e-9)
        assert scaled.sigma == pytest.approx(base.sigma)

    def test_from_mean_median_validation(self):
        with pytest.raises(ValueError):
            LinkErrorModel.from_mean_median(mean=0.05, median=0.07)
        with pytest.raises(ValueError):
            LinkErrorModel.from_mean_median(mean=-1, median=0.1)

    def test_scaled_to_mean_validation(self, link_model):
        with pytest.raises(ValueError):
            link_model.scaled_to_mean(0.0)
