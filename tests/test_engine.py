"""Tests for the parallel experiment engine.

Covers the satellite checklist of the engine PR: parallel-vs-sequential
determinism at a fixed seed, cache hit/miss/invalidation behaviour, task
graphs, seed derivation, and scalar-vs-batched parity for all seven
collision criteria.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collisions import (
    COLLISION_TYPES,
    CollisionThresholds,
    collision_free_mask,
    count_collisions,
    find_collisions,
)
from repro.core.fabrication import FabricationModel
from repro.core.yield_model import detuning_sweep, simulate_yield_point, yield_vs_qubits
from repro.engine import (
    ExecutionEngine,
    ExperimentSpec,
    Registry,
    ResultCache,
    Task,
    TaskGraph,
    spawn_seeds,
    stable_token,
)
from repro.engine.cache import code_version_token
from repro.obs.metrics import REGISTRY


def _result_cache_events(marks: dict) -> dict[str, int]:
    """Result-cache lookups by event since the registry checkpoint ``marks``."""
    delta = REGISTRY.delta_since(marks) or {"entries": []}
    return {
        entry["labels"][0]: int(entry["payload"])
        for entry in delta["entries"]
        if entry["name"] == "repro_result_cache_events_total"
    }


# Module-level task functions: picklable for the process pool.
def _square(x: int) -> int:
    return x * x


def _normal_sum(seed: int, count: int = 8) -> float:
    return float(np.random.default_rng(seed).normal(size=count).sum())


def _add(a, b=0):
    return a + b


def _boom(x):
    raise RuntimeError(f"task failed on {x}")


def _scaled_normal(scale, seed=0):
    return scale * float(np.random.default_rng(seed).normal())


class TestSeeding:
    def test_spawn_is_deterministic_and_distinct(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_spawn_depends_on_master(self):
        assert spawn_seeds(1, 3) != spawn_seeds(2, 3)

    def test_none_master_propagates(self):
        assert spawn_seeds(None, 3) == [None, None, None]


class TestEngineDeterminism:
    def test_sequential_and_parallel_runs_match(self):
        kwargs = [{"seed": s} for s in spawn_seeds(7, 6)]
        seq = ExecutionEngine(jobs=1, use_cache=False)
        par = ExecutionEngine(jobs=2, use_cache=False)
        assert seq.map_calls(_normal_sum, kwargs, name="t") == par.map_calls(
            _normal_sum, kwargs, name="t"
        )

    def test_parallel_sweep_is_bit_identical(self):
        common = dict(
            steps_ghz=(0.05, 0.06),
            sigmas_ghz=(0.014,),
            sizes=(10, 27, 40),
            batch_size=200,
            seed=7,
        )
        seq = detuning_sweep(**common)
        par = detuning_sweep(**common, executor=ExecutionEngine(jobs=2, use_cache=False))
        for key in seq:
            assert [p.num_collision_free for p in seq[key].points] == [
                p.num_collision_free for p in par[key].points
            ]

    def test_sweep_independent_of_execution_order(self):
        """A single point recomputed in isolation equals its in-sweep value."""
        curve = yield_vs_qubits(0.014, 0.06, sizes=(10, 27), batch_size=150, seed=3)
        child = spawn_seeds(3, 2)[1]
        alone = simulate_yield_point(
            sigma_ghz=0.014, step_ghz=0.06, num_qubits=27, batch_size=150, seed=child
        )
        assert alone.num_collision_free == curve.at_size(27).num_collision_free

    def test_results_preserve_submission_order(self):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        values = list(range(12))
        results = engine.map_calls(_square, [{"x": v} for v in values], name="sq")
        assert results == [v * v for v in values]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exceptions_propagate(self, jobs):
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        with pytest.raises(RuntimeError, match="task failed on 1"):
            engine.map_calls(_boom, [{"x": 1}, {"x": 2}], name="boom")

    def test_unpicklable_fn_falls_back_to_sequential(self):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        offset = 100
        results = engine.map_calls(
            lambda x: x + offset, [{"x": 1}, {"x": 2}], name="closure"
        )
        assert results == [101, 102]

    def test_engine_backed_sweep_parameter_uses_runner_param_name(self):
        """Regression: the engine path must pass the value under the
        runner's own first parameter name, not a hardcoded keyword."""
        from repro.analysis.sweeps import sweep_parameter

        engine = ExecutionEngine(jobs=1, use_cache=False)
        pairs = sweep_parameter((3, 4), _scaled_normal, seed=11, executor=engine)
        expected = sweep_parameter((3, 4), _scaled_normal, seed=11)
        assert pairs == expected


class TestResultCache:
    def test_hit_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("t", {"x": 1}, "v1")
        marks = REGISTRY.checkpoint()
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert _result_cache_events(marks) == {"hit": 1, "miss": 1}

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key_for("t", {"x": 1, "seed": 7}, "v1")
        assert cache.key_for("t", {"x": 1, "seed": 8}, "v1") != base  # seed
        assert cache.key_for("t", {"x": 2, "seed": 7}, "v1") != base  # params
        assert cache.key_for("u", {"x": 1, "seed": 7}, "v1") != base  # name
        assert cache.key_for("t", {"x": 1, "seed": 7}, "v2") != base  # code version
        assert cache.key_for("t", {"seed": 7, "x": 1}, "v1") == base  # key order

    def test_engine_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ExecutionEngine(jobs=1, cache=cache)
        kwargs = [{"x": v} for v in (1, 2, 3)]
        assert first.map_calls(_square, kwargs, name="sq") == [1, 4, 9]
        assert first.stats.tasks_executed == 3 and first.stats.cache_hits == 0
        second = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        assert second.map_calls(_square, kwargs, name="sq") == [1, 4, 9]
        assert second.stats.cache_hits == 3 and second.stats.tasks_executed == 0

    def test_cache_cleared(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExecutionEngine(jobs=1, cache=cache)
        engine.map_calls(_square, [{"x": 5}, {"x": 6}], name="sq")
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_no_cache_engine_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        engine = ExecutionEngine(jobs=1, use_cache=False)
        engine.map_calls(_square, [{"x": 3}], name="sq")
        assert engine.cache is None
        assert not (tmp_path / "cachedir").exists()

    def test_stable_token_handles_arrays_and_dataclasses(self):
        a = stable_token(np.arange(4.0))
        assert a == stable_token(np.arange(4.0))
        assert a != stable_token(np.arange(5.0))
        fab = stable_token(FabricationModel(0.014))
        assert fab == stable_token(FabricationModel(0.014))
        assert fab != stable_token(FabricationModel(0.006))

    def test_code_version_tracks_source(self):
        assert code_version_token(_square) == code_version_token(_square)
        assert code_version_token(_square) != code_version_token(_normal_sum)


class TestTaskGraph:
    def test_generations_respect_dependencies(self):
        graph = TaskGraph()
        graph.add("a", Task(name="t", fn=_add, params={"a": 1}))
        graph.add("b", Task(name="t", fn=_add, params={"a": 2}))
        graph.add("c", Task(name="t", fn=_add, params={"b": 10}, inject={"a": "a"}))
        assert graph.generations() == [["a", "b"], ["c"]]

    def test_run_graph_injects_dependency_results(self):
        graph = TaskGraph()
        graph.add("a", Task(name="t", fn=_add, params={"a": 1, "b": 2}))
        graph.add("double", Task(name="t", fn=_add, params={}, inject={"a": "a", "b": "a"}))
        results = ExecutionEngine(jobs=1, use_cache=False).run_graph(graph)
        assert results == {"a": 3, "double": 6}

    def test_cycle_detection(self):
        graph = TaskGraph()
        graph.add("a", Task(name="t", fn=_add, params={"a": 1}))
        with pytest.raises(ValueError):
            graph.add("b", Task(name="t", fn=_add), deps=("missing",))

    def test_duplicate_id_rejected(self):
        graph = TaskGraph()
        graph.add("a", Task(name="t", fn=_add, params={"a": 1}))
        with pytest.raises(ValueError):
            graph.add("a", Task(name="t", fn=_add, params={"a": 2}))


class TestRegistry:
    def test_register_resolve_alias(self):
        registry = Registry("experiment")
        spec = ExperimentSpec("fig0", "demo", _square, aliases=("zero",))
        registry.register("fig0", spec, aliases=("zero",))
        assert registry.get("zero").name == "fig0"
        assert "fig0" in registry and "zero" in registry
        with pytest.raises(ValueError):
            registry.register("fig0", ExperimentSpec("fig0", "again", _square))
        with pytest.raises(KeyError, match=r"unknown experiment 'zer0'; did you mean 'zero'\? \(known: fig0\)"):
            registry.get("zer0")


class TestEngineStats:
    def test_stats_accumulate(self):
        engine = ExecutionEngine(jobs=1, use_cache=False)
        engine.map_calls(_square, [{"x": v} for v in range(4)], name="sq")
        stats = engine.stats
        assert stats.tasks_total == 4
        assert stats.tasks_executed == 4
        assert stats.wall_seconds > 0
        assert "4 tasks" in stats.summary()
        assert stats.seconds_by_family["sq"] > 0


class TestCacheInvalidation:
    """The on-disk cache must miss when physics or statistics change,
    and hit across worker-count changes at a fixed seed."""

    POINT = dict(sigma_ghz=0.014, step_ghz=0.06, num_qubits=10, batch_size=80, seed=5)

    def _run(self, tmp_path, jobs=1, **overrides):
        engine = ExecutionEngine(jobs=jobs, cache=ResultCache(tmp_path))
        results = engine.map_calls(
            simulate_yield_point, [{**self.POINT, **overrides}], name="yield.point"
        )
        return engine, results[0]

    def test_thresholds_change_invalidates(self, tmp_path):
        first, _ = self._run(tmp_path)
        assert first.stats.cache_hits == 0
        repeat, _ = self._run(tmp_path)
        assert repeat.stats.cache_hits == 1
        tightened, _ = self._run(
            tmp_path, thresholds=CollisionThresholds(type1_ghz=0.02)
        )
        assert tightened.stats.cache_hits == 0
        assert tightened.stats.tasks_executed == 1

    def test_stats_parameters_invalidate(self, tmp_path):
        self._run(tmp_path)
        chunked, _ = self._run(tmp_path, chunk_size=40)
        assert chunked.stats.cache_hits == 0
        rechunked, _ = self._run(tmp_path, chunk_size=40)
        assert rechunked.stats.cache_hits == 1
        other_chunk, _ = self._run(tmp_path, chunk_size=20)
        assert other_chunk.stats.cache_hits == 0
        adaptive, _ = self._run(
            tmp_path, chunk_size=40, ci_target=0.05, max_samples=160
        )
        assert adaptive.stats.cache_hits == 0
        readaptive, _ = self._run(
            tmp_path, chunk_size=40, ci_target=0.05, max_samples=160
        )
        assert readaptive.stats.cache_hits == 1

    def test_hits_across_jobs_at_fixed_seed(self, tmp_path):
        kwargs = [
            {**self.POINT, "num_qubits": size, "chunk_size": 40}
            for size in (5, 10, 16)
        ]
        sequential = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        seq_results = sequential.map_calls(
            simulate_yield_point, kwargs, name="yield.point"
        )
        assert sequential.stats.cache_hits == 0
        parallel = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path))
        par_results = parallel.map_calls(
            simulate_yield_point, kwargs, name="yield.point"
        )
        assert parallel.stats.cache_hits == len(kwargs)
        assert parallel.stats.tasks_executed == 0
        assert [r.num_collision_free for r in seq_results] == [
            r.num_collision_free for r in par_results
        ]

    def test_seed_change_still_misses(self, tmp_path):
        self._run(tmp_path)
        reseeded, _ = self._run(tmp_path, seed=6)
        assert reseeded.stats.cache_hits == 0


class TestWorkersUsedStat:
    def test_parallel_batch_records_workers(self):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        engine.map_calls(_square, [{"x": v} for v in range(6)], name="sq")
        # distinct worker processes actually observed: at least one, and
        # never more than the configured pool (a lazily-filled pool may
        # legitimately serve a fast batch from a single worker)
        assert 1 <= engine.stats.workers_used <= 2

    def test_sequential_batch_records_one(self):
        engine = ExecutionEngine(jobs=1, use_cache=False)
        engine.map_calls(_square, [{"x": 1}], name="sq")
        assert engine.stats.workers_used == 1

    def test_small_batch_cannot_exceed_pending(self):
        engine = ExecutionEngine(jobs=8, use_cache=False)
        engine.map_calls(_square, [{"x": 1}, {"x": 2}], name="sq")
        assert engine.stats.workers_used <= 2


class TestCollisionScalarBatchParity:
    """Scalar `find_collisions` and batched `collision_free_mask` must agree."""

    def test_random_batch_parity(self, allocation_27):
        rng = np.random.default_rng(123)
        fabrication = FabricationModel(0.08)  # wide scatter -> all types occur
        frequencies = fabrication.sample_batch(allocation_27, 250, rng)
        mask = collision_free_mask(allocation_27, frequencies)
        scalar = np.array(
            [
                find_collisions(allocation_27, frequencies[i]).is_collision_free
                for i in range(frequencies.shape[0])
            ]
        )
        assert np.array_equal(mask, scalar)

    def test_every_criterion_exercised_and_detected_by_both(self, allocation_27):
        """Across a wide-scatter batch, each of the seven criteria fires at
        least once, and whenever the scalar path reports only type-k
        collisions the batched mask flags that device too."""
        rng = np.random.default_rng(7)
        frequencies = FabricationModel(0.08).sample_batch(allocation_27, 400, rng)
        mask = collision_free_mask(allocation_27, frequencies)
        seen = {ctype: 0 for ctype in COLLISION_TYPES}
        for i in range(frequencies.shape[0]):
            counts = count_collisions(allocation_27, frequencies[i])
            for ctype, count in counts.items():
                seen[ctype] += count
            if any(counts.values()):
                assert not mask[i]
        assert all(seen[ctype] > 0 for ctype in COLLISION_TYPES), seen

    @pytest.mark.parametrize("ctype", COLLISION_TYPES)
    def test_single_criterion_parity(self, ctype):
        """A hand-crafted violation of each Table I type is caught by both
        the scalar report and the batched mask (on the same 3-qubit device
        Table I uses: control Q1 coupled to targets Q0 and Q2)."""
        from repro.core.frequencies import FrequencySpec, allocation_from_labels

        spec = FrequencySpec()
        alpha = spec.anharmonicity_ghz
        allocation = allocation_from_labels(
            np.array([0, 2, 1]), [(1, 0), (1, 2)], spec=spec
        )
        f0, f1, f2 = spec.frequencies
        violations = {
            1: np.array([f2 + 0.001, f2, f1]),
            2: np.array([f2 + alpha / 2.0, f2, f1]),
            3: np.array([f2 + alpha + 0.001, f2, f1]),
            4: np.array([f2 + 0.05, f2, f1]),
            5: np.array([f0, f2, f0 + 0.001]),
            6: np.array([f0, f2, f0 - alpha - 0.001]),
            7: np.array([2 * f2 + alpha - f1 + 0.001, f2, f1]),
        }
        frequencies = violations[ctype]
        report = find_collisions(allocation, frequencies)
        assert ctype in {t for t, _ in report.collisions}
        assert not collision_free_mask(allocation, frequencies)[0]


class TestCacheRobustness:
    """Poisoned entries heal themselves and the registry's hit/miss
    counts survive concurrent readers."""

    def test_poisoned_entry_is_deleted_and_counted_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("t", {"x": 1}, "v1")
        cache.put(key, {"value": 41})
        path = cache.directory / f"{key}.pkl"
        path.write_bytes(b"\x80\x04 this is not a pickle")
        marks = REGISTRY.checkpoint()
        assert cache.get(key, default="fallback") == "fallback"
        assert _result_cache_events(marks) == {"miss": 1, "poisoned_unlink": 1}
        assert not path.exists(), "poisoned entry left in place"
        assert not cache.contains(key)  # the slot can heal now
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert _result_cache_events(marks)["hit"] == 1

    def test_truncated_entry_behaves_like_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("t", {"x": 2}, "v1")
        cache.put(key, list(range(1000)))
        path = cache.directory / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:20])  # torn write
        assert cache.get(key) is None
        assert not path.exists()

    def test_plain_miss_still_counts_without_a_file(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marks = REGISTRY.checkpoint()
        assert cache.get("0" * 64) is None
        assert _result_cache_events(marks) == {"miss": 1}

    def test_engine_recomputes_after_poisoned_entry(self, tmp_path):
        first = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        kwargs = [{"seed": 123}]
        warm = first.map_calls(_normal_sum, kwargs, name="ns")
        for path in (tmp_path / "cache").glob("*.pkl"):
            path.write_bytes(b"garbage")
        second = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert second.map_calls(_normal_sum, kwargs, name="ns") == warm
        assert second.stats.cache_hits == 0
        assert second.stats.tasks_executed == 1
        third = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert third.map_calls(_normal_sum, kwargs, name="ns") == warm
        assert third.stats.cache_hits == 1  # the slot healed

    def test_hit_and_miss_counters_are_thread_safe(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("t", {"x": 3}, "v1")
        cache.put(key, 7)
        rounds = 200
        workers = 8
        marks = REGISTRY.checkpoint()

        def hammer():
            for _ in range(rounds):
                assert cache.get(key) == 7
                cache.get("f" * 64)  # guaranteed miss

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert _result_cache_events(marks) == {
            "hit": rounds * workers,
            "miss": rounds * workers,
        }

    def test_cache_survives_pickling_without_its_lock(self, tmp_path):
        import pickle

        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for("t", {"x": 4}, "v1")
        cache.put(key, "value")
        clone = pickle.loads(pickle.dumps(cache))
        marks = REGISTRY.checkpoint()
        assert clone.get(key) == "value"
        assert _result_cache_events(marks) == {"hit": 1}
