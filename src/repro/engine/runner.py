"""The execution engine: pluggable-backend task runner with caching and stats.

:class:`ExecutionEngine` executes :class:`~repro.engine.task.Task` batches
on one of the registered execution backends
(:mod:`repro.engine.backends`): ``sequential`` in-process, ``threads``
or ``processes``, selected by name or — the default — per batch by the
``auto`` mode from the estimated task cost.  Because
every task carries its own pre-derived seed, all backends produce
bit-identical results.

Small cache-miss batches headed for a pool are *fused*: consecutive
same-function tasks are coalesced into super-tasks
(:func:`repro.engine.backends.run_fused`) so pool startup and submission
overhead amortise over many tasks.  Fusion changes scheduling only —
subtasks keep their own kwargs (and seeds), their own measured duration
and their own cache entry.

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
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.engine.backends import (
    AUTO_BACKEND,
    BACKENDS,
    Call,
    CancelToken,
    fn_picklable,
    get_backend,
    run_fused,
)
from repro.engine.cache import ResultCache, code_version_token
from repro.engine.phases import collecting
from repro.engine.task import Task, TaskGraph
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
_MET_FUSED = REGISTRY.counter(
    "repro_engine_tasks_fused_total",
    "Executed tasks that travelled to their worker inside a fused super-task",
)
_MET_FUSION_BATCHES = REGISTRY.counter(
    "repro_engine_fusion_batches_total",
    "Fused super-tasks submitted to pooled backends",
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

#: Environment variable naming the default backend (the CLI's --backend).
BACKEND_ENV_VAR = "REPRO_BACKEND"

# Auto-mode thresholds (seconds).  Estimated batch work below the first
# stays in-process (nothing amortises), below the second goes to threads
# (pool startup is ~free, numpy releases the GIL), above it to processes.
_AUTO_SEQUENTIAL_BELOW = 0.05
_AUTO_THREADS_BELOW = 0.5

#: Per-task cost above which fusion stops helping (pool overhead is
#: already amortised by the task itself).
_FUSION_MAX_TASK_SECONDS = 0.1

#: Fused super-task batches per worker: >1 keeps the pool load-balanced
#: when subtask durations are uneven.
_FUSION_WAVES = 2


@lru_cache(maxsize=64)
def _backend_accepts_cancel(backend_type: type) -> bool:
    """True when a backend's ``execute`` takes a ``cancel`` parameter.

    Detected from the signature (the ``initial_violations=`` idiom in
    ``tuning.repair_batch``) so third-party backends registered before
    cancellation existed keep working — they just cancel at batch
    granularity instead of call granularity.
    """
    try:
        return "cancel" in inspect.signature(backend_type.execute).parameters
    except (TypeError, ValueError):
        return False


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
        Largest number of *distinct* workers (processes or threads)
        observed executing any one batch (1 when every batch took the
        sequential in-process path).  This is what benchmark reports
        should publish alongside the *configured* ``jobs`` — the two
        differ whenever the pool falls back sequentially, a batch is
        smaller than the pool, or a lazily-filled pool serves the whole
        batch from fewer processes.
    backend:
        The configured backend name (``auto`` when the engine selects
        per batch).
    tasks_total:
        Tasks submitted (including cache hits).
    tasks_executed:
        Tasks that actually ran (cache misses).
    tasks_fused:
        Executed tasks that travelled to their worker inside a fused
        super-task (0 on the sequential path).
    fusion_batches:
        Fused super-tasks submitted to pools.
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
    backend: str = AUTO_BACKEND
    tasks_total: int = 0
    tasks_executed: int = 0
    tasks_fused: int = 0
    fusion_batches: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    seconds_by_family: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    seconds_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))

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
            f"on {self.jobs} worker(s) [{self.backend}] — "
            f"{self.tasks_per_second:.1f} tasks/s"
        )


class ExecutionEngine:
    """Cached, seeded task runner over pluggable execution backends.

    Parameters
    ----------
    jobs:
        Workers; ``None`` uses every available core, ``1`` forces the
        sequential in-process backend regardless of ``backend``.
    cache:
        Result cache instance; built at the default location when omitted
        and ``use_cache`` is set.
    use_cache:
        Master switch for the on-disk cache (the CLI's ``--no-cache``).
    backend:
        Execution backend name (see :data:`repro.engine.backends.BACKENDS`);
        ``None`` reads the ``REPRO_BACKEND`` environment variable and
        falls back to ``auto``.  Unknown names raise a ``KeyError`` with
        a did-you-mean suggestion.
    fuse:
        Enable task fusion for pooled backends (on by default; results
        are bit-identical either way).
    cancel:
        Optional :class:`~repro.engine.backends.CancelToken`.  Once set
        (from any thread), the engine raises
        :class:`~repro.engine.backends.ExecutionCancelled` before
        scheduling the next batch, and the running batch stops
        scheduling its remaining calls on every built-in backend.
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
        ``engine.batch`` span, backends collect spans inside their
        workers, and the engine adopts the shipped spans — re-parenting
        each task's ``task:<family>`` root under the batch span — so the
        assembled trace is one tree regardless of backend.  ``None``
        (the default) with no ambient tracer keeps tracing off and the
        hot paths free of overhead.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        backend: str | None = None,
        fuse: bool = True,
        cancel: CancelToken | None = None,
        progress: Callable[[dict[str, Any]], None] | None = None,
        tracer: tracing.Tracer | None = None,
    ):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = (cache if cache is not None else ResultCache()) if use_cache else None
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR) or AUTO_BACKEND
        BACKENDS.get(backend)  # validate early: KeyError carries did-you-mean
        self.backend = backend
        self.fuse = fuse
        self.cancel = cancel
        self.progress = progress
        self.tracer = tracer
        self.stats = EngineStats(jobs=self.jobs, backend=backend)
        self._family_counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # Flat batches
    # ------------------------------------------------------------------ #
    def map_calls(
        self,
        fn: Callable[..., Any],
        kwargs_list: Sequence[dict[str, Any]],
        *,
        name: str = "task",
        cacheable: bool = True,
    ) -> list[Any]:
        """Run ``fn(**kwargs)`` for every kwargs dict, preserving order.

        This is the duck-typed ``executor`` hook consumed by the ``core``
        sweep entry points.
        """
        tasks = [Task(name=name, fn=fn, params=kw, cacheable=cacheable) for kw in kwargs_list]
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute a batch of independent tasks, results in input order.

        Raises :class:`~repro.engine.backends.ExecutionCancelled` when
        the engine's cancel token is set — before the batch starts, or
        from the backend mid-batch.
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
            if (
                self.cache is not None
                and task.cacheable
                and not stochastic
                and not task.inject
                and _fn_cache_safe(task.fn)
            ):
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
            self._family_counts[tasks[index].name] += 1
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
    # Backend selection + fusion
    # ------------------------------------------------------------------ #
    def _estimated_cost(self, tasks: Sequence[Task], pending: list[int]) -> float | None:
        """Mean seconds per executed task over the pending families, from
        this engine's own history; ``None`` until every family has run."""
        families = {tasks[index].name for index in pending}
        costs = []
        for family in families:
            count = self._family_counts.get(family, 0)
            if count == 0:
                return None
            costs.append(self.stats.seconds_by_family[family] / count)
        return max(costs) if costs else None

    def _execute(
        self,
        tasks: Sequence[Task],
        pending: list[int],
        results: list[Any],
        tracer: tracing.Tracer | None = None,
    ) -> dict[int, float]:
        """Run the cache misses; returns per-task execution seconds by index.

        Exceptions raised by a task function always propagate to the
        caller (from any backend).  The sequential fallback is reserved
        for infrastructure problems only: an unpicklable task function
        (detected up front) or an environment that cannot sustain worker
        processes (see :mod:`repro.engine.backends`).
        """
        durations: dict[int, float] = {}
        if not pending:
            return durations
        pending = list(pending)

        cost = self._estimated_cost(tasks, pending)
        name = self.backend
        if name == AUTO_BACKEND:
            name, cost = self._auto_select(tasks, pending, durations, results, cost)
            if not pending:  # the probe consumed the whole batch
                self.stats.workers_used = max(self.stats.workers_used, 1)
                return durations
        if self.jobs <= 1 or len(pending) <= 1:
            name = "sequential"
        if name == "processes" and not all(
            fn_picklable(fn) for fn in {tasks[index].fn for index in pending}
        ):
            # Unpicklable task *functions* (lambdas, closures) cannot reach a
            # process pool; fused calls would smuggle them past the backend's
            # own check as parameters, so downgrade before planning.
            name = "sequential"

        backend = get_backend(name, jobs=self.jobs)
        trace = tracer is not None
        calls, groups = self._plan_calls(tasks, pending, backend.pooled, cost, trace)
        if self.cancel is not None and _backend_accepts_cancel(type(backend)):
            report = backend.execute(calls, cancel=self.cancel)
        else:
            report = backend.execute(calls)
        self.stats.workers_used = max(self.stats.workers_used, len(report.workers))

        # Cross-process metric deltas: workers increment their own
        # process's registry; the shipped deltas fold those increments
        # into this process.  Same-pid deltas are already booked (thread
        # workers, the sequential fallback) and must not merge twice.
        own_pid = os.getpid()
        for delta in getattr(report, "metrics", None) or []:
            if delta and delta.get("pid") != own_pid:
                REGISTRY.merge_delta(delta)

        # The span the workers' task roots re-parent under: the
        # engine.batch span currently open on this thread.
        parent_id = tracing.current_span_id() if trace else None

        # Older third-party backends may not populate `phases`/`spans`;
        # treat a missing or short list as empty.
        report_phases = getattr(report, "phases", None) or []
        report_spans = getattr(report, "spans", None) or []
        for position, group in enumerate(groups):
            if len(group) == 1:
                index = group[0]
                durations[index] = report.seconds[position]
                results[index] = report.results[position]
                if position < len(report_phases):
                    self._merge_phases(report_phases[position])
                if trace and position < len(report_spans) and report_spans[position]:
                    tracer.adopt(report_spans[position], parent_id=parent_id)
            else:
                self.stats.tasks_fused += len(group)
                self.stats.fusion_batches += 1
                _MET_FUSED.inc(len(group))
                _MET_FUSION_BATCHES.inc()
                for item, index in zip(report.results[position], group):
                    if len(item) == 4:  # traced run_fused ships spans too
                        seconds, phases, spans, result = item
                        if trace and spans:
                            tracer.adopt(spans, parent_id=parent_id)
                    else:
                        seconds, phases, result = item
                    durations[index] = seconds
                    results[index] = result
                    self._merge_phases(phases)
        return durations

    def _merge_phases(self, phases: dict[str, float] | None) -> None:
        if phases:
            for name, seconds in phases.items():
                self.stats.seconds_by_phase[name] += seconds
                _MET_PHASE_SECONDS.inc(seconds, phase=name)

    def _auto_select(
        self,
        tasks: Sequence[Task],
        pending: list[int],
        durations: dict[int, float],
        results: list[Any],
        cost: float | None,
    ) -> tuple[str, float | None]:
        """Resolve ``auto`` to a concrete backend from the estimated task cost.

        When no family history exists yet, the first pending task is
        *probed* in-process (its result and duration count normally) and
        its duration seeds the estimate — one task is a sunk sequential
        cost either way.
        """
        if self.jobs <= 1 or len(pending) <= 1:
            return "sequential", cost
        if cost is None:
            index = pending.pop(0)
            started = time.perf_counter()
            # The probe runs on the engine thread, where the tracer's
            # collector (if any) is already active — the span lands
            # under engine.batch directly, mirroring an adopted one.
            with tracing.span("task:" + tasks[index].name, probe=True):
                with collecting() as phases:
                    results[index] = tasks[index].run()
            cost = time.perf_counter() - started
            durations[index] = cost
            self._merge_phases(phases)
        remaining = cost * len(pending)
        if remaining < _AUTO_SEQUENTIAL_BELOW:
            return "sequential", cost
        if remaining < _AUTO_THREADS_BELOW:
            return "threads", cost
        return "processes", cost

    def _plan_calls(
        self,
        tasks: Sequence[Task],
        pending: list[int],
        pooled: bool,
        cost: float | None,
        trace: bool = False,
    ) -> tuple[list[Call], list[list[int]]]:
        """Build the backend call list, fusing small tasks for pooled backends.

        Returns ``(calls, groups)`` where ``groups[i]`` lists the task
        indices call ``i`` answers (singletons are plain calls, larger
        groups are :func:`run_fused` super-tasks).  Only consecutive
        same-function tasks fuse, and each super-task preserves the
        sequential execution order of its subtasks.

        With ``trace`` set, singleton calls carry ``Call.trace`` and
        fused super-calls pass ``trace``/``family`` through to
        :func:`run_fused`, so every subtask collects spans under its own
        ``task:<family>`` root (the super-call itself adds no span —
        trees stay identical with fusion on or off).
        """
        fusable = (
            self.fuse
            and pooled
            and len(pending) > self.jobs
            and (cost is None or cost < _FUSION_MAX_TASK_SECONDS)
        )
        target = -(-len(pending) // (self.jobs * _FUSION_WAVES)) if fusable else 1

        calls: list[Call] = []
        groups: list[list[int]] = []
        run: list[int] = []

        def _flush() -> None:
            while run:
                group, run[:] = run[:target], run[target:]
                if len(group) == 1:
                    index = group[0]
                    calls.append(
                        Call(
                            fn=tasks[index].fn,
                            kwargs=dict(tasks[index].params),
                            family=tasks[index].name,
                            trace=trace,
                        )
                    )
                else:
                    fused_kwargs: dict[str, Any] = {
                        "fn": tasks[group[0]].fn,
                        "kwargs_list": [dict(tasks[i].params) for i in group],
                    }
                    if trace:
                        # run_fused collects per-subtask spans itself, so
                        # the super-call's own Call.trace stays False (an
                        # extra wrapper span would make fused and unfused
                        # trees differ).
                        fused_kwargs["trace"] = True
                        fused_kwargs["family"] = tasks[group[0]].name
                    calls.append(
                        Call(
                            fn=run_fused,
                            kwargs=fused_kwargs,
                            family=tasks[group[0]].name,
                        )
                    )
                groups.append(group)

        for index in pending:
            if run and tasks[index].fn is not tasks[run[-1]].fn:
                _flush()
            run.append(index)
        _flush()
        return calls, groups

    # ------------------------------------------------------------------ #
    # Graphs
    # ------------------------------------------------------------------ #
    def run_graph(self, graph: TaskGraph) -> dict[str, Any]:
        """Execute a task graph generation by generation.

        Returns a mapping ``task id -> result``.  Tasks inside one
        generation run in parallel; dependency results are injected into
        dependants' parameters per their ``inject`` mapping.
        """
        results: dict[str, Any] = {}
        for generation in graph.generations():
            tasks = []
            for task_id in generation:
                task = graph.task(task_id)
                if task.inject:
                    params = dict(task.params)
                    for param, dep_id in task.inject.items():
                        params[param] = results[dep_id]
                    task = Task(
                        name=task.name, fn=task.fn, params=params, cacheable=False
                    )
                tasks.append(task)
            for task_id, result in zip(generation, self.run_tasks(tasks)):
                results[task_id] = result
        return results
