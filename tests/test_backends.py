"""Tests for the engine's two execution paths.

One rule decides how a batch runs: in-process at ``jobs=1`` (or with at
most one pending task), on a process pool otherwise.  Covered here:
that rule, bit-identical results on both paths — at the ``map_calls``
level, at the experiment level (``fig4`` / ``tunedyield`` /
``appsweep``), and against the committed fig4 golden — the pool's
infrastructure fallbacks (unpicklable functions, refused process
creation, the broken-pool resume that never re-executes completed
calls) and cooperative cancellation on both paths.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.registry import EXPERIMENTS, parse_runner_options
from repro.engine import (
    CancelToken,
    ExecutionCancelled,
    ExecutionEngine,
    spawn_seeds,
)
from repro.engine import backends as backends_module

#: The two execution paths, by the ``jobs`` that selects each.
PATHS = [pytest.param(1, id="sequential"), pytest.param(2, id="processes")]
POOL = PATHS[1:]


def _execute(jobs, calls, cancel=None):
    """Run a call batch on the path ``jobs`` selects."""
    if jobs == 1:
        return backends_module._run_serial(calls, cancel)
    return backends_module.run_pool(calls, jobs, cancel)


# Module-level task functions: picklable for the process pool.
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


class TestBackendParity:
    """Both paths must be bit-identical: tasks carry their own seeds."""

    @pytest.mark.parametrize("jobs", PATHS)
    def test_map_calls_matches_sequential(self, jobs):
        kwargs = [{"seed": s} for s in spawn_seeds(7, 6)]
        baseline = ExecutionEngine(jobs=1, use_cache=False)
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        assert engine.map_calls(_normal_sum, kwargs, name="t") == baseline.map_calls(
            _normal_sum, kwargs, name="t"
        )

    @pytest.mark.parametrize("jobs", POOL)
    def test_task_exceptions_propagate_from_pools(self, jobs):
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        with pytest.raises(RuntimeError, match="task failed on"):
            engine.map_calls(_boom, [{"x": 1}, {"x": 2}], name="boom")

    def test_lambda_downgrades_process_backend_to_sequential(self):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        offset = 10
        results = engine.map_calls(
            lambda x: x + offset, [{"x": 1}, {"x": 2}, {"x": 3}], name="closure"
        )
        assert results == [11, 12, 13]
        assert engine.stats.workers_used == 1  # ran in-process


class TestExecutionRule:
    """``jobs`` alone picks the path: in-process at 1, the pool above it."""

    def test_pool_runs_batches_of_two_or_more_on_every_worker(self, tmp_path):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        # Each call blocks until both have started, so a single worker
        # could never finish the batch: two distinct PIDs must show up.
        kwargs = [
            {"marker_dir": str(tmp_path), "index": i, "gate": f"ran-{1 - i}"}
            for i in range(2)
        ]
        assert engine.map_calls(_gated, kwargs, name="gated") == [0, 1]
        assert engine.stats.workers_used == 2

    def test_one_job_never_builds_a_pool(self, monkeypatch):
        def _refuse(*args, **kwargs):
            raise AssertionError("jobs=1 must not construct a process pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", _refuse)
        engine = ExecutionEngine(jobs=1, use_cache=False)
        values = list(range(8))
        assert engine.map_calls(_square, [{"x": v} for v in values], name="sq") == [
            v * v for v in values
        ]
        assert engine.stats.workers_used == 1

    def test_single_pending_task_runs_in_process(self, monkeypatch):
        def _refuse(*args, **kwargs):
            raise AssertionError("one pending task must not construct a pool")

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", _refuse)
        engine = ExecutionEngine(jobs=2, use_cache=False)
        assert engine.map_calls(_square, [{"x": 3}], name="sq") == [9]


#: (experiment, runner kwargs) pairs for end-to-end path parity —
#: small batches, every engine-driven Monte-Carlo / compile path.
_EXPERIMENT_CASES = {
    "fig4": dict(seed=7, batch_size=100),
    "tunedyield": dict(seed=7, batch_size=60),
    "appsweep": dict(seed=7, batch_size=60, benchmarks=("ghz",), routing="basic"),
}


def _run(engine, name, params):
    spec = EXPERIMENTS.get(name)
    kwargs, _ = parse_runner_options(spec, params)
    return spec.runner(engine, **kwargs)


@pytest.fixture(scope="module")
def sequential_experiment_texts():
    texts = {}
    for name, kwargs in _EXPERIMENT_CASES.items():
        engine = ExecutionEngine(jobs=1, use_cache=False)
        _, texts[name] = _run(engine, name, kwargs)
    return texts


class TestExperimentBackendParity:
    @pytest.mark.parametrize("jobs", POOL)
    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENT_CASES))
    def test_experiment_output_identical(
        self, jobs, experiment, sequential_experiment_texts
    ):
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        _, text = _run(engine, experiment, _EXPERIMENT_CASES[experiment])
        assert text == sequential_experiment_texts[experiment]

    @pytest.mark.parametrize("jobs", POOL)
    def test_fig4_golden_survives_backend(self, jobs):
        """Spot-check: the committed fig4 golden holds on the process pool."""
        from test_golden_regression import GOLDEN_DIR, GOLDEN_PARAMS, _drift, summarize
        import json

        seed, batch = GOLDEN_PARAMS["fig4"]
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        result, _ = _run(
            engine, "fig4", dict(seed=seed, batch_size=batch, full=False)
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
        report = backends_module.run_pool(calls, jobs=1)  # FIFO: one worker
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
        calls = [
            backends_module.Call(
                fn=_record_marker,
                kwargs={"marker_dir": str(tmp_path), "index": i},
                family="t",
            )
            for i in range(3)
        ]
        assert backends_module.run_pool(calls, jobs=2).results == [0, 10, 20]
        lines = (tmp_path / "markers.log").read_text().splitlines()
        assert sorted(int(line.split(":")[0]) for line in lines) == [0, 1, 2]


class TestCancellation:
    @pytest.mark.parametrize("jobs", PATHS)
    def test_pre_cancelled_token_runs_nothing(self, jobs, tmp_path):
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
            _execute(jobs, calls, cancel=token)
        assert not (tmp_path / "markers.log").exists()

    @pytest.mark.parametrize("name", ("sequential", "processes"))
    def test_cancel_mid_batch_stops_unscheduled_calls(self, name, tmp_path):
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
                if name == "sequential":
                    backends_module._run_serial(calls, token)
                else:  # one worker: FIFO scheduling
                    backends_module.run_pool(calls, jobs=1, cancel=token)
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
        engine = ExecutionEngine(jobs=1, use_cache=False, cancel=token)
        with pytest.raises(ExecutionCancelled):
            engine.map_calls(_square, [{"x": 1}], name="sq")
        assert engine.stats.tasks_executed == 0

    def test_progress_callback_sees_batch_snapshots(self):
        snapshots: list[dict] = []
        engine = ExecutionEngine(jobs=1, use_cache=False, progress=snapshots.append)
        engine.map_calls(_square, [{"x": v} for v in range(4)], name="sq")
        assert snapshots, "progress callback never fired"
        last = snapshots[-1]
        assert last["tasks_total"] == 4
        assert last["tasks_executed"] == 4
        assert last["batch_tasks"] == 4
        assert last["cache_hits"] == 0
        assert last["wall_seconds"] >= 0.0
