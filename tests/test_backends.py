"""Tests for the pluggable execution backends.

Covers the backend PR's contract: the registry (names, did-you-mean
diagnostics, the ``auto`` selection mode), bit-identical results across
all three executable backends — at the ``map_calls`` level, at the
experiment level (``fig4`` / ``tunedyield`` / ``appsweep``), and against
the committed fig4 golden — task fusion bookkeeping (per-subtask cache
entries and stats) and the ``REPRO_BACKEND`` environment default.

Regression suites added with the service PR: the broken-pool resume (no
re-execution of completed calls) and cooperative cancellation through
every backend.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.registry import EXPERIMENTS
from repro.engine import (
    BACKENDS,
    Backend,
    CancelToken,
    ExecutionCancelled,
    ExecutionEngine,
    ResultCache,
    SequentialBackend,
    get_backend,
    spawn_seeds,
)
from repro.engine import backends as backends_module
from repro.engine.runner import BACKEND_ENV_VAR

#: Every instantiable backend (``auto`` is a selection mode, not a class).
EXECUTABLE_BACKENDS = ("sequential", "threads", "processes")


# Module-level task functions: picklable for the process-pool backends.
def _normal_sum(seed: int, count: int = 8) -> float:
    return float(np.random.default_rng(seed).normal(size=count).sum())


def _square(x: int) -> int:
    return x * x


def _boom(x):
    raise RuntimeError(f"task failed on {x}")


def _record_marker(marker_dir: str, index: int) -> int:
    with open(os.path.join(marker_dir, "markers.log"), "a") as handle:
        handle.write(f"{index}:{os.getpid()}\n")
    return index * 10


def _kill_worker(marker_dir: str, index: int, parent_pid: int) -> int:
    if os.getpid() != parent_pid:
        os._exit(1)  # die BEFORE writing a marker: the pool breaks here
    return _record_marker(marker_dir, index)


def _gated(marker_dir: str, index: int, gate: str, timeout: float = 30.0) -> int:
    with open(os.path.join(marker_dir, f"ran-{index}"), "w"):
        pass
    deadline = time.time() + timeout
    gate_path = os.path.join(marker_dir, gate)
    while not os.path.exists(gate_path) and time.time() < deadline:
        time.sleep(0.01)
    return index


class TestBackendRegistry:
    def test_all_backends_registered(self):
        assert set(BACKENDS.names()) == {"auto", *EXECUTABLE_BACKENDS}

    def test_unknown_backend_has_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'processes'"):
            BACKENDS.get("procesess")

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="known: .*sequential"):
            BACKENDS.get("mpi")

    def test_auto_is_not_instantiable(self):
        with pytest.raises(ValueError, match="selection mode"):
            get_backend("auto", jobs=2)

    @pytest.mark.parametrize("name", EXECUTABLE_BACKENDS)
    def test_instances_satisfy_protocol(self, name):
        backend = get_backend(name, jobs=2)
        assert isinstance(backend, Backend)
        assert backend.name == name

    def test_engine_rejects_unknown_backend_early(self):
        with pytest.raises(KeyError, match="did you mean 'threads'"):
            ExecutionEngine(jobs=2, use_cache=False, backend="treads")

    def test_duplicate_registration_rejected(self):
        spec = BACKENDS.get("sequential")
        with pytest.raises(ValueError, match="already registered"):
            BACKENDS.register(spec)


class TestBackendParity:
    """All backends must be bit-identical: tasks carry their own seeds."""

    @pytest.mark.parametrize("name", EXECUTABLE_BACKENDS)
    def test_map_calls_matches_sequential(self, name):
        kwargs = [{"seed": s} for s in spawn_seeds(7, 6)]
        baseline = ExecutionEngine(jobs=1, use_cache=False, backend="sequential")
        engine = ExecutionEngine(jobs=2, use_cache=False, backend=name)
        assert engine.map_calls(_normal_sum, kwargs, name="t") == baseline.map_calls(
            _normal_sum, kwargs, name="t"
        )

    @pytest.mark.parametrize("name", ("threads", "processes"))
    def test_fusion_does_not_change_results(self, name):
        kwargs = [{"seed": s} for s in spawn_seeds(13, 9)]
        fused = ExecutionEngine(jobs=2, use_cache=False, backend=name)
        plain = ExecutionEngine(jobs=2, use_cache=False, backend=name, fuse=False)
        assert fused.map_calls(_normal_sum, kwargs, name="t") == plain.map_calls(
            _normal_sum, kwargs, name="t"
        )
        assert fused.stats.tasks_fused == 9
        assert plain.stats.tasks_fused == 0

    @pytest.mark.parametrize("name", ("threads", "processes"))
    def test_task_exceptions_propagate_from_pools(self, name):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend=name, fuse=False)
        with pytest.raises(RuntimeError, match="task failed on"):
            engine.map_calls(_boom, [{"x": 1}, {"x": 2}], name="boom")

    def test_lambda_downgrades_process_backend_to_sequential(self):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend="processes")
        offset = 10
        results = engine.map_calls(
            lambda x: x + offset, [{"x": 1}, {"x": 2}, {"x": 3}], name="closure"
        )
        assert results == [11, 12, 13]
        assert engine.stats.workers_used == 1  # ran in-process


class TestTaskFusion:
    def test_fusion_stats_and_grouping(self):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend="threads")
        values = list(range(8))
        results = engine.map_calls(_square, [{"x": v} for v in values], name="sq")
        assert results == [v * v for v in values]
        # 8 pending tasks on 2 workers, 2 waves -> groups of 2, 4 batches.
        assert engine.stats.tasks_fused == 8
        assert engine.stats.fusion_batches == 4
        assert engine.stats.tasks_executed == 8

    def test_fused_tasks_keep_per_subtask_cache_entries(self, tmp_path):
        kwargs = [{"seed": s} for s in spawn_seeds(11, 8)]
        first = ExecutionEngine(
            jobs=2, cache=ResultCache(tmp_path / "cache"), backend="threads"
        )
        warm = first.map_calls(_normal_sum, kwargs, name="ns")
        assert first.stats.tasks_fused == 8

        second = ExecutionEngine(
            jobs=2, cache=ResultCache(tmp_path / "cache"), backend="threads"
        )
        replay = second.map_calls(_normal_sum, kwargs, name="ns")
        assert replay == warm
        assert second.stats.cache_hits == 8
        assert second.stats.tasks_executed == 0

    def test_small_batches_do_not_fuse(self):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend="threads")
        engine.map_calls(_square, [{"x": 1}, {"x": 2}], name="sq")
        assert engine.stats.tasks_fused == 0  # len(pending) <= jobs

    def test_sequential_backend_never_fuses(self):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend="sequential")
        engine.map_calls(_square, [{"x": v} for v in range(8)], name="sq")
        assert engine.stats.tasks_fused == 0
        assert engine.stats.fusion_batches == 0


class TestAutoModeAndEnvironment:
    def test_auto_resolves_tiny_batches_sequentially(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        engine = ExecutionEngine(jobs=2, use_cache=False)
        kwargs = [{"x": v} for v in range(6)]
        assert engine.map_calls(_square, kwargs, name="sq") == [
            v * v for v in range(6)
        ]
        assert engine.stats.backend == "auto"
        assert engine.stats.workers_used == 1  # probe + cheap -> in-process

    def test_auto_matches_sequential_results(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        kwargs = [{"seed": s} for s in spawn_seeds(5, 7)]
        auto = ExecutionEngine(jobs=2, use_cache=False, backend="auto")
        seq = ExecutionEngine(jobs=1, use_cache=False, backend="sequential")
        assert auto.map_calls(_normal_sum, kwargs, name="t") == seq.map_calls(
            _normal_sum, kwargs, name="t"
        )

    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threads")
        assert ExecutionEngine(jobs=2, use_cache=False).backend == "threads"

    def test_explicit_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threads")
        engine = ExecutionEngine(jobs=2, use_cache=False, backend="sequential")
        assert engine.backend == "sequential"

    def test_empty_env_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert ExecutionEngine(jobs=2, use_cache=False).backend == "auto"

    def test_invalid_env_backend_raises_with_suggestion(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "procesess")
        with pytest.raises(KeyError, match="did you mean 'processes'"):
            ExecutionEngine(jobs=2, use_cache=False)

    def test_stats_summary_names_backend(self):
        engine = ExecutionEngine(jobs=1, use_cache=False, backend="sequential")
        engine.map_calls(_square, [{"x": 2}], name="sq")
        assert "[sequential]" in engine.stats.summary()

    def test_sequential_backend_forces_one_job(self):
        assert SequentialBackend(jobs=8).jobs == 1


#: (experiment, runner kwargs) pairs for end-to-end backend parity —
#: small batches, every engine-driven Monte-Carlo / compile path.
_EXPERIMENT_CASES = {
    "fig4": dict(seed=7, batch_size=100),
    "tunedyield": dict(seed=7, batch_size=60),
    "appsweep": dict(seed=7, batch_size=60, benchmarks=("ghz",), routing="basic"),
}


@pytest.fixture(scope="module")
def sequential_experiment_texts():
    texts = {}
    for name, kwargs in _EXPERIMENT_CASES.items():
        engine = ExecutionEngine(jobs=1, use_cache=False, backend="sequential")
        _, texts[name] = EXPERIMENTS.get(name).runner(engine, **kwargs)
    return texts


class TestExperimentBackendParity:
    @pytest.mark.parametrize("backend", ("threads", "processes"))
    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENT_CASES))
    def test_experiment_output_identical(
        self, backend, experiment, sequential_experiment_texts
    ):
        engine = ExecutionEngine(jobs=2, use_cache=False, backend=backend)
        spec = EXPERIMENTS.get(experiment)
        _, text = spec.runner(engine, **_EXPERIMENT_CASES[experiment])
        assert text == sequential_experiment_texts[experiment]

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_fig4_golden_survives_backend(self, backend):
        """Spot-check: the committed fig4 golden holds under pooled backends."""
        from test_golden_regression import GOLDEN_DIR, GOLDEN_PARAMS, _drift, summarize
        import json

        seed, batch = GOLDEN_PARAMS["fig4"]
        engine = ExecutionEngine(jobs=2, use_cache=False, backend=backend)
        result, _ = EXPERIMENTS.get("fig4").runner(
            engine, seed=seed, batch_size=batch, full=False
        )
        golden = json.loads((GOLDEN_DIR / "fig4.json").read_text())
        problems = _drift(golden["summary"], summarize(result))
        assert not problems, "\n".join(problems[:10])


class _NoProcessPool:
    """Stand-in that refuses to start, forcing the sequential fallback."""

    def __init__(self, *args, **kwargs):
        raise OSError("process creation refused (test)")


class TestBrokenPoolResume:
    """Regression: the broken-pool sequential fallback used to re-run the
    WHOLE batch in the parent, duplicating completed calls' side effects."""

    def test_resume_skips_completed_calls(self, monkeypatch, tmp_path):
        # A fallback is only taken when the canary says workers can't
        # start; here a task killed its worker, so pretend they can't.
        monkeypatch.setattr(backends_module, "_workers_can_start", lambda: False)
        marker_dir = str(tmp_path)
        parent = os.getpid()
        backend = get_backend("processes", jobs=1)  # FIFO: one worker
        calls = [
            backends_module.Call(
                fn=_record_marker,
                kwargs={"marker_dir": marker_dir, "index": i},
                family="resume",
            )
            for i in range(5)
        ]
        calls[2] = backends_module.Call(
            fn=_kill_worker,
            kwargs={"marker_dir": marker_dir, "index": 2, "parent_pid": parent},
            family="resume",
        )
        report = backend.execute(calls)
        assert report.results == [0, 10, 20, 30, 40]
        lines = (tmp_path / "markers.log").read_text().splitlines()
        executed = sorted(int(line.split(":")[0]) for line in lines)
        assert executed == [0, 1, 2, 3, 4]  # each call ran exactly once
        # Calls 0-1 ran in a pool worker, the resumed tail in the parent.
        by_index = {int(l.split(":")[0]): int(l.split(":")[1]) for l in lines}
        assert by_index[2] == by_index[3] == by_index[4] == parent
        assert by_index[0] != parent and by_index[1] != parent

    def test_pool_that_never_starts_runs_everything_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", _NoProcessPool)
        backend = get_backend("processes", jobs=2)
        calls = [
            backends_module.Call(
                fn=_record_marker,
                kwargs={"marker_dir": str(tmp_path), "index": i},
                family="t",
            )
            for i in range(3)
        ]
        assert backend.execute(calls).results == [0, 10, 20]
        lines = (tmp_path / "markers.log").read_text().splitlines()
        assert sorted(int(line.split(":")[0]) for line in lines) == [0, 1, 2]


class TestCancellation:
    @pytest.mark.parametrize("name", EXECUTABLE_BACKENDS)
    def test_pre_cancelled_token_runs_nothing(self, name, tmp_path):
        backend = get_backend(name, jobs=2)
        token = CancelToken()
        token.cancel()
        calls = [
            backends_module.Call(
                fn=_record_marker,
                kwargs={"marker_dir": str(tmp_path), "index": i},
                family="t",
            )
            for i in range(4)
        ]
        with pytest.raises(ExecutionCancelled):
            backend.execute(calls, cancel=token)
        assert not (tmp_path / "markers.log").exists()

    @pytest.mark.parametrize("name", EXECUTABLE_BACKENDS)
    def test_cancel_mid_batch_stops_unscheduled_calls(self, name, tmp_path):
        backend = get_backend(name, jobs=1)  # one worker: FIFO scheduling
        token = CancelToken()
        # Call 0 blocks on its own gate; the tail blocks on a second gate
        # that stays closed until the execute loop has had time to observe
        # the token — so the only call the single worker can dequeue before
        # cancellation takes effect is the one racer blocked on "go-rest".
        calls = [
            backends_module.Call(
                fn=_gated,
                kwargs={
                    "marker_dir": str(tmp_path),
                    "index": i,
                    "gate": "go-first" if i == 0 else "go-rest",
                },
                family="gated",
            )
            for i in range(8)
        ]
        outcome: list = []

        def run():
            try:
                backend.execute(calls, cancel=token)
                outcome.append(None)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.time() + 30.0
        while not (tmp_path / "ran-0").exists() and time.time() < deadline:
            time.sleep(0.01)
        assert (tmp_path / "ran-0").exists(), "first call never started"
        token.cancel()
        (tmp_path / "go-first").write_text("")  # release the in-flight call
        time.sleep(0.5)  # let the loop observe the token and cancel the tail
        (tmp_path / "go-rest").write_text("")  # release the racer, if any
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ExecutionCancelled)
        assert "unscheduled" in str(outcome[0]) or "cancelled" in str(outcome[0])
        ran = {int(p.name.split("-")[1]) for p in tmp_path.glob("ran-*")}
        assert 0 in ran
        # The in-flight call plus the racers a pool may have dequeued or
        # pre-fed to its workers before the loop observed the token (a
        # ProcessPoolExecutor keeps max_workers+1 calls in its feed queue,
        # beyond cancellation's reach); the unscheduled tail never runs.
        assert len(ran) <= 4, f"cancellation let {sorted(ran)} run"
        assert ran.isdisjoint({4, 5, 6, 7}), f"tail calls ran: {sorted(ran)}"

    def test_cancel_token_is_idempotent_and_irreversible(self):
        token = CancelToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op while clear
        token.cancel()
        token.cancel()
        assert token.cancelled
        with pytest.raises(ExecutionCancelled):
            token.raise_if_cancelled()


class TestEngineCancellationAndProgress:
    def test_engine_checks_token_before_running(self):
        token = CancelToken()
        token.cancel()
        engine = ExecutionEngine(
            jobs=1, use_cache=False, backend="sequential", cancel=token
        )
        with pytest.raises(ExecutionCancelled):
            engine.map_calls(_square, [{"x": 1}], name="sq")
        assert engine.stats.tasks_executed == 0

    def test_legacy_backend_signatures_are_detected(self):
        from repro.engine.runner import _backend_accepts_cancel

        class _Legacy:
            def execute(self, calls):
                return backends_module.ExecutionReport(results=[], seconds=[])

        assert not _backend_accepts_cancel(_Legacy)
        assert _backend_accepts_cancel(SequentialBackend)
        assert _backend_accepts_cancel(backends_module.ProcessBackend)

    def test_progress_callback_sees_batch_snapshots(self):
        snapshots: list[dict] = []
        engine = ExecutionEngine(
            jobs=1,
            use_cache=False,
            backend="sequential",
            progress=snapshots.append,
        )
        engine.map_calls(_square, [{"x": v} for v in range(4)], name="sq")
        assert snapshots, "progress callback never fired"
        last = snapshots[-1]
        assert last["tasks_total"] == 4
        assert last["tasks_executed"] == 4
        assert last["batch_tasks"] == 4
        assert last["cache_hits"] == 0
        assert last["wall_seconds"] >= 0.0
