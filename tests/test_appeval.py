"""Tests for the engine-parallel application-evaluation layer."""

from __future__ import annotations

from math import inf, isnan

import pytest

from repro.analysis.appeval import (
    benchmark_seeds,
    compile_and_score,
    run_compile_jobs,
    score_from_row,
    summarise_ensemble,
)
from repro.analysis.figures.appsweep import run_appsweep
from repro.analysis.figures.fig10_apps import run_fig10_applications
from repro.circuits.benchmarks import BENCHMARK_NAMES
from repro.engine import ExecutionEngine, ResultCache
from repro.stats import median_interval


@pytest.fixture()
def cached_engine(tmp_path):
    def build(jobs: int) -> ExecutionEngine:
        return ExecutionEngine(jobs=jobs, cache=ResultCache(tmp_path / "cache"))

    return build


class TestCompileAndScore:
    def test_deterministic_and_scored(self, small_study):
        device = small_study.mcm_result(20, (2, 2)).best_device
        first = compile_and_score("qaoa", 30, 5, device)
        second = compile_and_score("qaoa", 30, 5, device)
        assert first == second
        assert first["log10_fidelity"] < 0
        assert first["num_two_qubit_gates"] > 0
        assert first["routing"] == "basic"

    def test_score_roundtrip(self, small_study):
        device = small_study.mcm_result(20, (2, 2)).best_device
        row = compile_and_score("bv", 30, 5, device)
        score = score_from_row(row)
        assert score.log10_fidelity == row["log10_fidelity"]
        assert score.num_two_qubit_gates == row["num_two_qubit_gates"]

    def test_routing_changes_the_result_fields(self, small_study):
        device = small_study.mcm_result(20, (2, 2)).best_device
        basic = compile_and_score("qaoa", 30, 5, device, routing="basic")
        aware = compile_and_score("qaoa", 30, 5, device, routing="noise-aware")
        assert basic["routing"] == "basic" and aware["routing"] == "noise-aware"
        # Same logical circuit, so both compile the same two-qubit load
        # before routing; only the SWAP traffic may differ.
        assert basic["width"] == aware["width"]


class TestEngineParity:
    def test_parallel_matches_sequential_and_caches(self, small_study, cached_engine):
        device = small_study.mcm_result(20, (2, 2)).best_device
        kwargs_list = [
            dict(benchmark=name, width=24, circuit_seed=seed, device=device)
            for name in ("bv", "qaoa", "ghz")
            for seed in (1, 2)
        ]
        sequential = run_compile_jobs(kwargs_list, engine=None)

        parallel_engine = cached_engine(jobs=4)
        parallel = run_compile_jobs(kwargs_list, engine=parallel_engine)
        assert parallel == sequential
        assert parallel_engine.stats.cache_hits == 0

        rerun_engine = cached_engine(jobs=1)
        rerun = run_compile_jobs(kwargs_list, engine=rerun_engine)
        assert rerun == sequential
        assert rerun_engine.stats.cache_hits == len(kwargs_list)

    def test_fig10_engine_parallel_is_bit_identical(self, small_study, cached_engine):
        sequential = run_fig10_applications(
            small_study, chiplet_sizes=(20,), benchmarks=("bv", "qaoa"), seed=5
        )
        parallel = run_fig10_applications(
            small_study,
            chiplet_sizes=(20,),
            benchmarks=("bv", "qaoa"),
            seed=5,
            engine=cached_engine(jobs=4),
        )
        assert parallel.rows == sequential.rows

    def test_device_identity_separates_cache_entries(self, small_study, cached_engine):
        best = small_study.mcm_result(20, (2, 2)).top_devices(2)
        engine = cached_engine(jobs=1)
        kwargs_list = [
            dict(benchmark="bv", width=24, circuit_seed=3, device=device)
            for device in best
        ]
        first, second = run_compile_jobs(kwargs_list, engine=engine)
        assert engine.stats.cache_hits == 0
        assert first["device"] != second["device"]


class TestEnsembleSummary:
    def test_median_and_spread(self):
        rows = [
            {"log10_fidelity": -1.0, "num_swaps": 10},
            {"log10_fidelity": -3.0, "num_swaps": 30},
            {"log10_fidelity": -2.0, "num_swaps": 20},
        ]
        summary = summarise_ensemble(rows)
        assert summary.median_log10_fidelity == -2.0
        assert summary.num_devices == 3
        assert summary.median_swaps == 20
        assert summary.spread is not None
        assert summary.spread.low == -3.0 and summary.spread.high == -1.0

    def test_empty_ensemble(self):
        summary = summarise_ensemble([])
        assert summary.num_devices == 0
        assert isnan(summary.median_log10_fidelity)
        assert summary.spread is None
        assert isnan(summary.ratio_vs(summary))

    def test_dead_ensemble_median(self):
        rows = [{"log10_fidelity": -inf, "num_swaps": 1}] * 3
        summary = summarise_ensemble(rows)
        assert summary.median_log10_fidelity == -inf
        assert summary.spread is None

    def test_ratio_semantics(self):
        good = summarise_ensemble([{"log10_fidelity": -1.0, "num_swaps": 0}])
        better = summarise_ensemble([{"log10_fidelity": -0.5, "num_swaps": 0}])
        assert better.ratio_vs(good) == pytest.approx(10.0**0.5)
        assert good.ratio_vs(None) == inf
        dead = summarise_ensemble([{"log10_fidelity": -inf, "num_swaps": 0}])
        assert good.ratio_vs(dead) == inf
        assert dead.ratio_vs(good) == 0.0


class TestSeeding:
    def test_benchmark_seeds_are_position_stable(self):
        seeds = benchmark_seeds(11)
        assert set(seeds) == set(BENCHMARK_NAMES)
        assert len(set(seeds.values())) == len(BENCHMARK_NAMES)
        assert benchmark_seeds(11) == seeds
        assert benchmark_seeds(12) != seeds

    def test_none_seed_propagates(self):
        seeds = benchmark_seeds(None)
        assert all(seed is None for seed in seeds.values())


class TestAppSweep:
    def test_jobs_parity_and_axis_filtering(self, cached_engine):
        sequential = run_appsweep(
            topologies=("heavy-hex", "ring"),
            benchmarks=("ghz",),
            batch_size=60,
            top_k=2,
            seed=7,
        )
        parallel = run_appsweep(
            topologies=("heavy-hex", "ring"),
            benchmarks=("ghz",),
            batch_size=60,
            top_k=2,
            seed=7,
            engine=cached_engine(jobs=4),
        )
        assert parallel.rows == sequential.rows

        # Filtering an axis reproduces the matching rows of the full run.
        ring_only = run_appsweep(
            topologies=("ring",),
            benchmarks=("ghz",),
            batch_size=60,
            top_k=2,
            seed=7,
        )
        ring_rows = [row for row in sequential.rows if row.topology == "ring"]
        assert ring_only.rows == ring_rows

    def test_rerun_is_all_cache_hits(self, cached_engine):
        kwargs = dict(
            topologies=("ring",), benchmarks=("ghz",), batch_size=60, top_k=2, seed=7
        )
        first_engine = cached_engine(jobs=1)
        first = run_appsweep(engine=first_engine, **kwargs)
        assert first_engine.stats.cache_hits == 0
        rerun_engine = cached_engine(jobs=1)
        rerun = run_appsweep(engine=rerun_engine, **kwargs)
        assert rerun.rows == first.rows
        assert rerun_engine.stats.cache_hits == rerun_engine.stats.tasks_total > 0

    def test_routing_filter_keeps_the_ratio_baseline(self):
        # Filtering --routing must not silently re-anchor the ratio
        # column: the baseline (untuned basic) axis is still compiled.
        full = run_appsweep(
            topologies=("ring",), benchmarks=("ghz",), batch_size=60, top_k=2, seed=7
        )
        aware_only = run_appsweep(
            topologies=("ring",),
            benchmarks=("ghz",),
            routings=("noise-aware",),
            batch_size=60,
            top_k=2,
            seed=7,
        )
        assert all(row.routing == "noise-aware" for row in aware_only.rows)
        full_aware = [row for row in full.rows if row.routing == "noise-aware"]
        assert aware_only.rows == full_aware

    def test_baseline_rows_have_unit_ratio(self):
        result = run_appsweep(
            topologies=("heavy-hex",), benchmarks=("ghz",), batch_size=60, seed=7
        )
        baseline = [
            row for row in result.rows if row.routing == "basic" and not row.tuned
        ]
        assert baseline
        for row in baseline:
            assert row.ratio_vs_baseline == 1.0
        assert any(row.routing == "noise-aware" for row in result.rows)


class TestMedianInterval:
    def test_singleton(self):
        ci = median_interval([2.5])
        assert ci.low == ci.high == ci.estimate == 2.5
        assert ci.confidence == 0.0  # a single point brackets nothing

    def test_small_sample_returns_full_range_with_achieved_coverage(self):
        ci = median_interval([1.0, 3.0, 2.0])
        assert ci.low == 1.0 and ci.high == 3.0 and ci.estimate == 2.0
        assert ci.method == "median-order"
        # The interval reports its exact coverage (1 - 2^(1-3)), not the
        # 0.95 it was asked for and cannot reach.
        assert ci.confidence == pytest.approx(0.75)

    def test_large_sample_tightens(self):
        values = list(range(101))
        ci = median_interval([float(v) for v in values])
        assert ci.estimate == 50.0
        assert ci.low > 0.0 and ci.high < 100.0
        assert ci.low <= ci.estimate <= ci.high
        assert ci.confidence >= 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            median_interval([])
        with pytest.raises(ValueError):
            median_interval([1.0], confidence=1.5)
