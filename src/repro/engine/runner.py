"""The execution engine: a cached, seeded task runner with stats.

:class:`ExecutionEngine` executes :class:`~repro.engine.task.Task`
batches under one rule, set by ``jobs`` alone: a batch's cache misses
run in-process when ``jobs == 1`` or at most one task is pending, and
on a process pool of ``jobs`` workers otherwise (see
:mod:`repro.engine.backends`).  Because every task carries its own
pre-derived seed, both paths produce bit-identical results.

The engine deliberately exposes a small duck-typed surface —
:meth:`ExecutionEngine.map_calls` — that the ``core`` sweep entry points
accept as their ``executor`` hook without importing this package.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.backends import Call, CancelToken, _run_serial, run_pool
from repro.engine.cache import ResultCache, code_version_token
from repro.engine.task import Task
from repro.obs import tracing
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY

__all__ = ["ExecutionEngine", "EngineStats"]

_log = get_logger("engine.runner")

# Engine activity on the process metrics registry (see repro.obs.metrics).
# These mirror EngineStats — the registry aggregates across every engine
# instance in the process (the service runs one per job) and is what the
# /metrics endpoint renders.
_MET_TASKS = REGISTRY.counter(
    "repro_engine_tasks_total",
    "Tasks submitted to engines by outcome (cached, executed)",
    labels=("status",),
)
_MET_BATCH_SECONDS = REGISTRY.histogram(
    "repro_engine_batch_seconds",
    "Wall-clock seconds per engine batch (one run_tasks call)",
)
_MET_PHASE_SECONDS = REGISTRY.counter(
    "repro_engine_phase_seconds_total",
    "Cumulative exclusive seconds per instrumented pipeline phase",
    labels=("phase",),
)


def _fn_cache_safe(fn: Callable[..., Any]) -> bool:
    """Only plain module-level functions may hit the on-disk cache.

    The cache key hashes a function's *source*; closures, lambdas defined
    inside other functions, bound methods and ``functools.partial``
    objects carry captured state the source does not show, so two
    same-source callables can compute different results and must never
    share a cache entry.
    """
    return (
        inspect.isfunction(fn)
        and fn.__closure__ is None
        and "<locals>" not in fn.__qualname__
    )


@dataclass
class EngineStats:
    """Wall-clock / throughput instrumentation for one engine instance.

    Attributes
    ----------
    jobs:
        Workers the engine was configured with.
    workers_used:
        Largest number of *distinct* worker processes observed executing
        any one batch (1 when every batch ran in-process).  This is what
        benchmark reports should publish alongside the *configured*
        ``jobs`` — the two differ whenever the pool falls back
        in-process, a batch is smaller than the pool, or a pool serves
        the whole batch from fewer processes.
    tasks_total:
        Tasks submitted (including cache hits).
    tasks_executed:
        Tasks that actually ran (cache misses).
    cache_hits:
        Tasks answered from the on-disk cache.
    wall_seconds:
        Total wall-clock time spent inside ``run_tasks`` calls.
    seconds_by_family:
        Cumulative *execution* time per task family (task ``name``),
        measured per task in whichever process ran it; cache hits cost
        nothing, and with parallel workers the sum can exceed
        ``wall_seconds``.
    seconds_by_phase:
        Cumulative execution time per instrumented pipeline phase
        (``sample``/``mask``/``repair``/``compile``/``score``, see
        :mod:`repro.engine.phases`), measured inside whichever worker
        ran each task and shipped home with the result.  Exclusive
        accounting (a phase's time excludes its nested phases), so the
        buckets sum to at most the executed-task time; the gap from
        ``seconds_by_family`` totals is un-instrumented task code.
        Cache hits contribute nothing, same as ``seconds_by_family``.
    """

    jobs: int = 1
    workers_used: int = 0
    tasks_total: int = 0
    tasks_executed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    seconds_by_family: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    seconds_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def unattributed_seconds(self) -> float:
        """``wall_seconds`` not booked to any phase.

        Engine overhead, un-instrumented task code and result-cache
        lookups.  At ``jobs > 1`` the phases are summed across workers
        running in parallel, so the residual can be negative there.
        """
        return self.wall_seconds - sum(self.seconds_by_phase.values())

    @property
    def tasks_per_second(self) -> float:
        """Answered-task throughput (cache hits included) over the
        engine's lifetime — a fully cached run is fast, not idle."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.tasks_total / self.wall_seconds

    def summary(self) -> str:
        """One-line human-readable account of the engine's work."""
        return (
            f"{self.tasks_total} tasks ({self.cache_hits} cached, "
            f"{self.tasks_executed} executed) in {self.wall_seconds:.2f}s "
            f"on {self.jobs} worker(s) — {self.tasks_per_second:.1f} tasks/s"
        )


class ExecutionEngine:
    """Cached, seeded task runner: in-process or on a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` uses every available core.  ``1``
        runs every batch in-process; above it a batch with two or more
        cache misses runs on a process pool of up to ``jobs`` workers.
    cache:
        Result cache instance; built at the default location when omitted
        and ``use_cache`` is set.
    use_cache:
        Master switch for the on-disk cache (the CLI's ``--no-cache``).
    cancel:
        Optional :class:`~repro.engine.backends.CancelToken`.  Once set
        (from any thread), the engine raises
        :class:`~repro.engine.backends.ExecutionCancelled` before
        scheduling the next batch, and the running batch stops
        scheduling its remaining calls on either path.
    progress:
        Optional callable invoked after every completed batch with a
        stats snapshot dict (``tasks_total``, ``tasks_executed``,
        ``cache_hits``, ``batch_tasks``, ``batch_executed``,
        ``batch_seconds``, ``wall_seconds``).  Called from whichever
        thread runs the batch; must be cheap and must not raise.
    tracer:
        Optional :class:`repro.obs.tracing.Tracer`.  When set (or when a
        tracer is ambiently active on the calling thread via
        ``Tracer.activate()``), every batch runs under an
        ``engine.batch`` span, tasks collect spans wherever they run,
        and the engine adopts the shipped spans — re-parenting each
        task's ``task:<family>`` root under the batch span — so the
        assembled trace is one tree on either path.  ``None``
        (the default) with no ambient tracer keeps tracing off and the
        hot paths free of overhead.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        cancel: CancelToken | None = None,
        progress: Callable[[dict[str, Any]], None] | None = None,
        tracer: tracing.Tracer | None = None,
    ):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = (cache if cache is not None else ResultCache()) if use_cache else None
        self.cancel = cancel
        self.progress = progress
        self.tracer = tracer
        self.stats = EngineStats(jobs=self.jobs)

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #
    def map_calls(
        self,
        fn: Callable[..., Any],
        kwargs_list: Sequence[dict[str, Any]],
        *,
        name: str = "task",
    ) -> list[Any]:
        """Run ``fn(**kwargs)`` for every kwargs dict, preserving order.

        This is the duck-typed ``executor`` hook consumed by the ``core``
        sweep entry points.
        """
        tasks = [Task(name=name, fn=fn, params=kw) for kw in kwargs_list]
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute a batch of independent tasks, results in input order.

        Raises :class:`~repro.engine.backends.ExecutionCancelled` when
        the engine's cancel token is set — before the batch starts, or
        between calls mid-batch.
        """
        # Tracer resolution: an explicitly configured tracer wins, else
        # whatever tracer the calling thread has activated (the CLI's
        # --trace flow).  When the configured tracer is not yet active on
        # this thread — the service runs jobs on worker threads — the
        # batch activates it so engine-side spans have a collector.
        tracer = self.tracer if self.tracer is not None else tracing.active_tracer()
        if tracer is not None and not tracing.is_tracing():
            with tracer.activate():
                return self._run_batch(tasks, tracer)
        return self._run_batch(tasks, tracer)

    def _run_batch(self, tasks: Sequence[Task], tracer: tracing.Tracer | None) -> list[Any]:
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        started = time.perf_counter()
        results: list[Any] = [None] * len(tasks)

        pending: list[int] = []
        keys: dict[int, str] = {}
        _MISS = object()
        for index, task in enumerate(tasks):
            # An explicit seed=None marks a task as intentionally
            # non-deterministic (fresh OS entropy) — replaying a cached
            # result would silently freeze its randomness.
            stochastic = "seed" in task.params and task.params["seed"] is None
            if self.cache is not None and not stochastic and _fn_cache_safe(task.fn):
                key = self.cache.key_for(
                    task.name, dict(task.params), code_version_token(task.fn)
                )
                keys[index] = key
                cached = self.cache.get(key, _MISS)
                if cached is not _MISS:
                    results[index] = cached
                    self.stats.cache_hits += 1
                    continue
            pending.append(index)

        with tracing.span("engine.batch", tasks=len(tasks), pending=len(pending)):
            durations = self._execute(tasks, pending, results, tracer)
        for index in durations:
            if index in keys:
                self.cache.put(keys[index], results[index])

        elapsed = time.perf_counter() - started
        batch_hits = len(tasks) - len(pending)
        self.stats.tasks_total += len(tasks)
        self.stats.tasks_executed += len(pending)
        self.stats.wall_seconds += elapsed
        if batch_hits:
            _MET_TASKS.inc(batch_hits, status="cached")
        if pending:
            _MET_TASKS.inc(len(pending), status="executed")
        _MET_BATCH_SECONDS.observe(elapsed)
        _log.debug(
            "batch done: %d task(s), %d executed, %d cached, %.3fs",
            len(tasks),
            len(pending),
            batch_hits,
            elapsed,
        )
        for index, seconds in durations.items():
            self.stats.seconds_by_family[tasks[index].name] += seconds
        if self.progress is not None:
            self.progress(
                {
                    "tasks_total": self.stats.tasks_total,
                    "tasks_executed": self.stats.tasks_executed,
                    "cache_hits": self.stats.cache_hits,
                    "batch_tasks": len(tasks),
                    "batch_executed": len(pending),
                    "batch_seconds": elapsed,
                    "wall_seconds": self.stats.wall_seconds,
                }
            )
        return results

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        tasks: Sequence[Task],
        pending: list[int],
        results: list[Any],
        tracer: tracing.Tracer | None = None,
    ) -> dict[int, float]:
        """Run the cache misses; returns per-task execution seconds by index.

        Exceptions raised by a task function always propagate to the
        caller.  The pool falls back in-process only for infrastructure
        problems: an unpicklable task function or an environment that
        cannot sustain worker processes (see :mod:`repro.engine.backends`).
        """
        if not pending:
            return {}
        trace = tracer is not None
        calls = [
            Call(
                fn=tasks[index].fn,
                kwargs=dict(tasks[index].params),
                family=tasks[index].name,
                trace=trace,
            )
            for index in pending
        ]
        if self.jobs == 1 or len(calls) == 1:
            report = _run_serial(calls, self.cancel)
        else:
            report = run_pool(calls, self.jobs, self.cancel)
        self.stats.workers_used = max(self.stats.workers_used, len(report.workers))

        # Cross-process metric deltas: workers increment their own
        # process's registry; the shipped deltas fold those increments
        # into this process.  In-process calls are already booked.
        own_pid = os.getpid()
        for delta in report.metrics:
            if delta and delta.get("pid") != own_pid:
                REGISTRY.merge_delta(delta)

        # The span the workers' task roots re-parent under: the
        # engine.batch span currently open on this thread.
        parent_id = tracing.current_span_id() if trace else None
        durations: dict[int, float] = {}
        for position, index in enumerate(pending):
            durations[index] = report.seconds[position]
            results[index] = report.results[position]
            self._merge_phases(report.phases[position])
            if trace and report.spans[position]:
                tracer.adopt(report.spans[position], parent_id=parent_id)
        return durations

    def _merge_phases(self, phases: dict[str, float]) -> None:
        for name, seconds in phases.items():
            self.stats.seconds_by_phase[name] += seconds
            _MET_PHASE_SECONDS.inc(seconds, phase=name)
