"""Tests for the adaptive Monte-Carlo statistics layer (``repro.stats``).

Covers the Wilson interval, the streaming estimator, the adaptive
stopping rule, and — the load-bearing guarantee — bit-identical parity
between the chunked yield estimator, adaptive or not, and the
materialised monolithic batch at the same seed
(``tests/stats_reference.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.collisions import collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.core.yield_model import (
    YieldResult,
    simulate_yield,
    simulate_yield_chunked,
    simulate_yield_point,
    yield_vs_qubits,
)
from repro.engine.seeding import spawn_seed_at, spawn_seeds
from repro.stats.adaptive import StatsOptions, adaptive_estimate
from repro.stats.intervals import binomial_ci, normal_quantile, wilson_interval
from repro.stats.streaming import StreamingEstimator, chunk_layout, chunk_seed
from repro.topology.heavy_hex import heavy_hex_by_qubit_count
from stats_reference import materialize_seeded_batch

# Module-level device shared by the parity tests (built once; hypothesis
# dislikes function-scoped fixtures, and the lattice search is not free).
_LATTICE_20 = heavy_hex_by_qubit_count(20)
_ALLOCATION_20 = HeavyHexThreeFrequencyPlan().allocate(_LATTICE_20)
_FABRICATION = FabricationModel(0.014)


class TestIntervals:
    def test_normal_quantile_matches_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)

    @pytest.mark.parametrize("successes,trials", [(0, 50), (50, 50), (7, 50), (1, 3)])
    def test_interval_brackets_estimate(self, successes, trials):
        ci = binomial_ci(successes, trials)
        assert 0.0 <= ci.low <= ci.estimate <= ci.high <= 1.0
        assert ci.estimate in ci
        assert ci.method == "wilson"

    def test_wilson_never_degenerates_in_the_tails(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0 and low < 1.0

    def test_width_shrinks_with_samples(self):
        wide = binomial_ci(70, 100)
        narrow = binomial_ci(700, 1000)
        assert narrow.half_width < wide.half_width

    def test_width_grows_with_confidence(self):
        ci90 = binomial_ci(70, 100, confidence=0.90)
        ci99 = binomial_ci(70, 100, confidence=0.99)
        assert ci99.half_width > ci90.half_width
        assert ci99.low < ci90.low and ci99.high > ci90.high

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 0)
        with pytest.raises(ValueError):
            binomial_ci(-1, 10)
        with pytest.raises(ValueError):
            binomial_ci(11, 10)
        with pytest.raises(ValueError):
            binomial_ci(5, 10, confidence=1.0)

    @given(
        trials=st.integers(1, 5000),
        frac=st.floats(0.0, 1.0),
        confidence=st.floats(0.5, 0.999),
    )
    def test_interval_validity_property(self, trials, frac, confidence):
        successes = min(trials, int(round(frac * trials)))
        ci = binomial_ci(successes, trials, confidence=confidence)
        assert 0.0 <= ci.low <= ci.estimate <= ci.high <= 1.0


class TestStreamingEstimator:
    def test_accumulates_and_serves_interval(self):
        estimator = StreamingEstimator()
        estimator.update(10, 50).update(20, 50)
        assert estimator.successes == 30
        assert estimator.trials == 100
        assert estimator.chunks == 2
        assert estimator.estimate == pytest.approx(0.3)
        direct = binomial_ci(30, 100)
        assert estimator.interval() == direct
        assert estimator.half_width() == direct.half_width

    def test_empty_estimator_edges(self):
        estimator = StreamingEstimator()
        assert math.isnan(estimator.estimate)
        assert estimator.half_width() == float("inf")
        with pytest.raises(ValueError):
            estimator.interval()

    def test_invalid_chunks_rejected(self):
        estimator = StreamingEstimator()
        with pytest.raises(ValueError):
            estimator.update(1, 0)
        with pytest.raises(ValueError):
            estimator.update(5, 4)

    def test_chunk_layout(self):
        assert chunk_layout(1000, 250) == [250, 250, 250, 250]
        assert chunk_layout(600, 250) == [250, 250, 100]
        assert chunk_layout(100, 250) == [100]
        with pytest.raises(ValueError):
            chunk_layout(0, 250)
        with pytest.raises(ValueError):
            chunk_layout(100, 0)

    def test_chunk_seed_prefix_stability(self):
        """Chunk i's seed never depends on how many chunks a run draws."""
        assert chunk_seed(None, 3) is None
        for n in (4, 8, 64):
            derived = spawn_seeds(42, n)
            for index in range(4):
                assert chunk_seed(42, index) == derived[index]
                assert spawn_seed_at(42, index) == derived[index]


class TestAdaptiveEstimate:
    @staticmethod
    def _binomial_draw(p: float, seed: int = 9):
        def draw(chunk_index: int, length: int) -> tuple[int, int]:
            rng = np.random.default_rng(chunk_seed(seed, chunk_index))
            return int(rng.random(length).__lt__(p).sum()), length

        return draw

    def test_stops_when_target_reached(self):
        outcome = adaptive_estimate(
            self._binomial_draw(0.0), ci_target=0.02, max_samples=10_000, chunk_size=250
        )
        assert outcome.reached_target
        assert outcome.trials == 250  # one tail chunk suffices
        assert outcome.half_width <= 0.02

    def test_respects_sample_cap(self):
        outcome = adaptive_estimate(
            self._binomial_draw(0.5), ci_target=0.001, max_samples=1000, chunk_size=250
        )
        assert not outcome.reached_target
        assert outcome.trials == 1000
        assert outcome.chunks == 4

    def test_ragged_cap_layout(self):
        outcome = adaptive_estimate(
            self._binomial_draw(0.5), ci_target=0.0, max_samples=600, chunk_size=250
        )
        assert outcome.trials == 600
        # No target: every chunk of the layout is drawn (the streaming run).
        untargeted = adaptive_estimate(
            self._binomial_draw(0.0), ci_target=None, max_samples=600, chunk_size=250
        )
        assert (untargeted.trials, untargeted.chunks) == (600, 3)
        assert not untargeted.reached_target

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            adaptive_estimate(self._binomial_draw(0.5), ci_target=-0.1)
        with pytest.raises(ValueError):
            adaptive_estimate(self._binomial_draw(0.5), ci_target=0.1, max_samples=0)

    def test_nan_ci_target_raises(self):
        # NaN fails every comparison, so it would never stop a run early.
        with pytest.raises(ValueError, match="non-negative number"):
            adaptive_estimate(self._binomial_draw(0.5), ci_target=float("nan"))


class TestStatsOptions:
    def test_defaults_are_inert(self):
        assert StatsOptions().is_default
        assert not StatsOptions(chunk_size=100).is_default
        assert not StatsOptions(ci_target=0.02).is_default

    def test_validation(self):
        with pytest.raises(ValueError):
            StatsOptions(chunk_size=0)
        with pytest.raises(ValueError):
            StatsOptions(ci_target=-1.0)
        with pytest.raises(ValueError, match="non-negative number"):
            StatsOptions(ci_target=float("nan"))
        with pytest.raises(ValueError):
            StatsOptions(max_samples=-5)
        with pytest.raises(ValueError, match="only applies to adaptive runs"):
            StatsOptions(max_samples=100)


class TestYieldResultCI:
    def test_ci_computed_on_construction(self):
        result = YieldResult(
            num_qubits=20, sigma_ghz=0.014, step_ghz=0.06,
            batch_size=1000, num_collision_free=700,
        )
        assert result.ci_low <= result.estimate <= result.ci_high
        assert result.estimate == result.collision_free_yield
        assert result.samples_used == 1000
        assert result.ci_half_width > 0.0
        # Every result carries a 95% Wilson interval; neither is a knob.
        assert (result.confidence, result.ci_method) == (0.95, "wilson")
        with pytest.raises(TypeError):
            YieldResult(20, 0.014, 0.06, 1000, 700, confidence=0.99)

    def test_tail_results_keep_informative_intervals(self):
        zero = YieldResult(20, 0.014, 0.06, 1000, 0)
        full = YieldResult(20, 0.014, 0.06, 1000, 1000)
        assert zero.ci_low == 0.0 and zero.ci_high > 0.0
        assert full.ci_high == 1.0 and full.ci_low < 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            YieldResult(20, 0.014, 0.06, 0, 0)
        with pytest.raises(ValueError):
            YieldResult(20, 0.014, 0.06, 10, 11)

    def test_legacy_simulate_yield_carries_ci(self, allocation_27, rng):
        result = simulate_yield(allocation_27, FabricationModel(0.014), 200, rng)
        assert result.ci_low <= result.estimate <= result.ci_high


class TestChunkedParity:
    """The acceptance-criteria guarantee: chunked == monolithic, bit for bit."""

    def test_streaming_matches_materialized_monolith(self):
        batch = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, batch_size=800, chunk_size=250, seed=11
        )
        monolithic = int(collision_free_mask(_ALLOCATION_20, batch).sum())
        streamed = simulate_yield_chunked(
            _ALLOCATION_20, _FABRICATION, batch_size=800, chunk_size=250, seed=11
        )
        assert streamed.num_collision_free == monolithic
        assert streamed.batch_size == 800

    @pytest.mark.parametrize("chunk_size", [64, 250, 800, 1000])
    def test_materialized_batch_prefix_stability(self, chunk_size):
        """Same chunk partition -> same bits, regardless of reduction."""
        full = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, batch_size=500, chunk_size=chunk_size, seed=3
        )
        assert full.shape == (500, 20)
        again = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, batch_size=500, chunk_size=chunk_size, seed=3
        )
        assert np.array_equal(full, again)

    def test_adaptive_observes_a_prefix_of_the_fixed_batch(self):
        """With a zero target the adaptive run must replay the fixed batch."""
        fixed = simulate_yield_chunked(
            _ALLOCATION_20, _FABRICATION, batch_size=1000, chunk_size=250, seed=5
        )
        adaptive = simulate_yield_chunked(
            _ALLOCATION_20, _FABRICATION, batch_size=1000, chunk_size=250, seed=5,
            ci_target=0.0,
        )
        assert adaptive.num_collision_free == fixed.num_collision_free
        assert adaptive.samples_used == fixed.samples_used

    def test_adaptive_stops_early_in_the_tail(self):
        lattice = heavy_hex_by_qubit_count(300)
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice)
        result = simulate_yield_chunked(
            allocation, _FABRICATION, batch_size=4000, chunk_size=250, seed=7,
            ci_target=0.02,
        )
        assert result.samples_used == 250  # one chunk: yield ~ 0
        assert result.ci_half_width <= 0.02
        assert result.ci_low <= result.estimate <= result.ci_high

    @given(
        batch_size=st.integers(10, 200),
        chunk_size=st.integers(1, 250),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_streaming_parity_property(self, batch_size, chunk_size, seed):
        """For any (batch, chunk, seed): streaming == monolithic reduce."""
        lattice = heavy_hex_by_qubit_count(5)
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice)
        fabrication = FabricationModel(0.05)
        batch = materialize_seeded_batch(
            allocation, fabrication, batch_size, chunk_size, seed
        )
        monolithic = int(collision_free_mask(allocation, batch).sum())
        streamed = simulate_yield_chunked(
            allocation, fabrication, batch_size, chunk_size, seed
        )
        assert streamed.num_collision_free == monolithic

    def test_point_dispatch_selects_sampler(self):
        legacy = simulate_yield_point(0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20)
        streamed = simulate_yield_point(
            0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20, chunk_size=125
        )
        adaptive = simulate_yield_point(
            0.014, 0.06, 20, 500, seed=7, lattice=_LATTICE_20,
            chunk_size=125, ci_target=0.1,
        )
        batch = materialize_seeded_batch(
            _ALLOCATION_20, _FABRICATION, batch_size=500, chunk_size=125, seed=7
        )
        reference = int(collision_free_mask(_ALLOCATION_20, batch).sum())
        assert streamed.num_collision_free == reference
        assert adaptive.samples_used <= streamed.samples_used
        # the legacy sampler is untouched: single monolithic draw
        assert legacy.batch_size == 500

    def test_sweep_accepts_stats_options(self):
        options = StatsOptions(ci_target=0.05, chunk_size=100, max_samples=600)
        curve = yield_vs_qubits(
            0.014, 0.06, sizes=(10, 100), batch_size=400, seed=3, stats=options
        )
        small, large = curve.at_size(10), curve.at_size(100)
        assert small.ci_low <= small.estimate <= small.ci_high
        # the deep-tail point stops early, the mid-yield point samples more
        assert large.samples_used <= small.samples_used
        assert large.samples_used <= 600
