"""Pluggable execution backends for the engine's cache-miss batches.

The :class:`~repro.engine.runner.ExecutionEngine` decides *what* to run
(cache misses, fused super-tasks) and the backend decides *how*: in the
calling process, on a thread pool or on a process pool.  Every backend
executes the same ordered list of :class:`Call` objects and returns an
:class:`ExecutionReport` aligned with it, so the engine's results are
bit-identical across backends — each task already carries its own
spawn-derived seed, and no backend reorders or re-seeds anything.

Backends are registered by name in :data:`BACKENDS`, which mirrors the
``ARCHITECTURES`` / ``ROUTING_STRATEGIES`` registries: lookups by unknown
name raise a ``KeyError`` with a did-you-mean suggestion, and the CLI
lists every entry.  ``auto`` is a registered *mode*, not a class — the
engine resolves it per batch from the estimated task cost (see
:meth:`ExecutionEngine._select_backend`).

Failure semantics (kept from the historical process-pool runner): a task
exception always propagates; the sequential fallback is reserved for
infrastructure problems only — an unpicklable task function, an
environment that refuses to start processes, or a pool that breaks
before any worker ever ran.  When a broken pool does fall back, only the
calls whose futures never completed are re-run (completed results and
durations are kept), so side-effecting tasks never execute twice.

Cancellation: every backend's ``execute`` accepts an optional
:class:`CancelToken`.  A set token stops the scheduling of remaining
calls — in-flight work runs to completion (a process cannot be safely
killed mid-task), queued futures are cancelled — and surfaces as
:class:`ExecutionCancelled`.  The token is a plain ``threading.Event``
wrapper, so the service layer can flip it from any thread.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable


from repro.engine.phases import collecting
from repro.engine.registry import did_you_mean
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import collect_spans
from repro.obs.tracing import span as trace_span

_log = get_logger("engine.backends")

__all__ = [
    "Call",
    "ExecutionReport",
    "Backend",
    "CancelToken",
    "ExecutionCancelled",
    "fn_picklable",
    "run_fused",
    "SequentialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BackendSpec",
    "BackendRegistry",
    "BACKENDS",
    "AUTO_BACKEND",
    "get_backend",
]

#: Name of the cost-based per-batch selection mode (not a Backend class).
AUTO_BACKEND = "auto"

class ExecutionCancelled(RuntimeError):
    """A batch stopped because its :class:`CancelToken` was set.

    Raised by the backend (between calls) or by the engine (between
    batches); completed call results inside the aborted batch are
    discarded — cancellation is a request to stop producing, not a
    partial-result channel.
    """


class CancelToken:
    """Thread-safe one-way cancellation flag shared across layers.

    The service layer flips it from the event loop, the engine checks it
    between task batches, and every backend checks it between call
    completions — so one ``cancel()`` stops the scheduling of all
    remaining work no matter which layer currently holds the batch.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, irreversible)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise ExecutionCancelled("execution cancelled")


@dataclass(frozen=True)
class Call:
    """One unit of backend work: ``fn(**kwargs)`` plus its task family.

    ``family`` is diagnostic only (worker-death error messages); the
    engine owns the mapping back to task indices.  ``trace`` asks the
    executing worker to collect spans for this call (see
    :mod:`repro.obs.tracing`) and ship them home in the report — off by
    default so untraced runs pay nothing.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any]
    family: str = "task"
    trace: bool = False


@dataclass
class ExecutionReport:
    """Per-call outcomes of one backend batch, aligned with the input.

    ``workers`` holds opaque worker identifiers (PIDs for processes,
    thread idents for threads) — its size is the number of distinct
    workers that actually executed something.

    ``phases`` carries each call's ``{phase: seconds}`` wall-clock
    buckets (see :mod:`repro.engine.phases`), measured in whichever
    worker ran the call.  Fused super-calls report an empty dict here —
    their per-subtask buckets travel inside the :func:`run_fused`
    result triples instead.  Defaults to empty so third-party backends
    that predate phase accounting keep working.

    ``spans`` carries each call's collected span records (empty unless
    the call asked for tracing via ``Call.trace``); like ``phases``,
    fused super-calls report an empty list here and their per-subtask
    spans travel inside the :func:`run_fused` result tuples.

    ``metrics`` carries each call's metrics-registry delta (``None``
    when nothing moved or the call ran in the engine's own process —
    see :meth:`repro.obs.metrics.MetricsRegistry.delta_since`); the
    engine merges cross-process deltas at report time.  Both new
    fields default to empty so third-party backends keep working.
    """

    results: list[Any]
    seconds: list[float]
    workers: set[int] = field(default_factory=set)
    phases: list[dict[str, float]] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)
    metrics: list[Any] = field(default_factory=list)


@runtime_checkable
class Backend(Protocol):
    """The pluggable execution contract.

    ``execute`` runs every call (order of completion is free, order of
    the report is not) and must let task exceptions propagate.
    ``pooled`` tells the engine whether task fusion can amortise a
    per-batch pool cost (False for the in-process backend).
    """

    name: str
    pooled: bool

    def execute(
        self, calls: Sequence[Call], cancel: CancelToken | None = None
    ) -> ExecutionReport:
        """Run every call; report results/seconds in input order.

        A set ``cancel`` token stops the scheduling of remaining calls
        and raises :class:`ExecutionCancelled`.  Third-party backends
        may omit the parameter — the engine only passes it when the
        signature accepts it.
        """
        ...


def _traced_call(
    fn: Callable[..., Any], kwargs: dict[str, Any], trace: bool, family: str
) -> tuple[dict[str, float], list[dict], Any]:
    """Run one task under the phase collector (always) and, when asked,
    a span collector with a ``task:<family>`` root span.

    The root span carries ``parent=None`` — the worker knows nothing
    about the submitting task — and the engine re-parents it under the
    span active on the submitting thread when it adopts the shipment.
    """
    if trace:
        with collect_spans() as spans:
            with trace_span("task:" + family):
                with collecting() as phases:
                    result = fn(**kwargs)
        return phases, spans, result
    with collecting() as phases:
        result = fn(**kwargs)
    return phases, [], result


def _invoke(
    fn: Callable[..., Any],
    kwargs: dict[str, Any],
    trace: bool = False,
    family: str = "task",
) -> tuple[float, int, dict[str, float], list[dict], Any, Any]:
    """Module-level trampoline so task invocations pickle cleanly.

    Returns ``(seconds, worker_pid, phases, spans, metrics_delta,
    result)`` — the worker times its own execution (and collects the
    task's per-phase buckets, plus its spans when ``trace`` is set) so
    per-task-family statistics stay accurate across processes, and
    reports its PID so the engine can count the workers that *actually*
    ran tasks (a lazily-filled pool may use fewer processes than it was
    configured with).  ``metrics_delta`` carries what the call added to
    this worker's metrics registry (cache/routing counters incremented
    inside task code), so the engine-side registry sees increments made
    in other processes.
    """
    started = time.perf_counter()
    marks = REGISTRY.checkpoint()
    phases, spans, result = _traced_call(fn, kwargs, trace, family)
    delta = REGISTRY.delta_since(marks)
    return time.perf_counter() - started, os.getpid(), phases, spans, delta, result


def _invoke_in_thread(
    fn: Callable[..., Any],
    kwargs: dict[str, Any],
    trace: bool = False,
    family: str = "task",
) -> tuple[float, int, dict[str, float], list[dict], Any, Any]:
    """Thread-pool trampoline: like :func:`_invoke` but identifies the
    executing *thread*, so ``workers_used`` reflects thread concurrency.
    No metrics delta: worker threads share the engine process's registry,
    so their increments are already booked (shipping them home again
    would double count)."""
    started = time.perf_counter()
    phases, spans, result = _traced_call(fn, kwargs, trace, family)
    return time.perf_counter() - started, threading.get_ident(), phases, spans, None, result


def run_fused(
    fn: Callable[..., Any],
    kwargs_list: list[dict[str, Any]],
    trace: bool = False,
    family: str = "task",
) -> list[tuple]:
    """Execute a fused super-task: every subtask in order, individually timed.

    The engine unpacks the ``(seconds, phases, result)`` triples back
    onto the original task indices, so per-family statistics, per-phase
    buckets and cache entries stay per-subtask even though the pool only
    saw one submission.  Bit-identity is free: each subtask's kwargs
    carry its own spawn-derived seed, and execution order inside the
    group matches the sequential order.

    With ``trace`` set, each subtask additionally collects its own span
    list under a ``task:<family>`` root and the tuples become
    ``(seconds, phases, spans, result)`` — a 4-tuple, so the engine (and
    nothing else) distinguishes the shapes by length.  The super-call
    itself emits no span: the trace shows one ``task:<family>`` span per
    subtask regardless of fusion, keeping span trees backend-invariant.
    """
    out: list[tuple] = []
    for kwargs in kwargs_list:
        started = time.perf_counter()
        phases, spans, result = _traced_call(fn, kwargs, trace, family)
        elapsed = time.perf_counter() - started
        if trace:
            out.append((elapsed, phases, spans, result))
        else:
            out.append((elapsed, phases, result))
    return out


def _run_serial(
    calls: Sequence[Call], cancel: CancelToken | None = None
) -> ExecutionReport:
    """In-process execution of a call batch (also the infra fallback).

    Traced calls collect their spans in a dedicated frame (shadowing any
    collector active on the engine thread) and ship them through
    ``report.spans`` like every pooled backend, so span trees come out
    identical no matter which backend ran the batch.
    """
    results: list[Any] = []
    seconds: list[float] = []
    phase_buckets: list[dict[str, float]] = []
    span_lists: list[list[dict]] = []
    for call in calls:
        if cancel is not None:
            cancel.raise_if_cancelled()
        started = time.perf_counter()
        phases, spans, result = _traced_call(
            call.fn, call.kwargs, getattr(call, "trace", False), call.family
        )
        results.append(result)
        seconds.append(time.perf_counter() - started)
        phase_buckets.append(phases)
        span_lists.append(spans)
    return ExecutionReport(
        results=results,
        seconds=seconds,
        workers={os.getpid()},
        phases=phase_buckets,
        spans=span_lists,
        metrics=[None] * len(results),
    )


def fn_picklable(fn: Callable[..., Any]) -> bool:
    """Cheap up-front check that a function can cross process boundaries.

    Functions pickle by reference, so this catches lambdas and closures
    without serialising any (potentially large) parameters.
    """
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def _fns_picklable(calls: Sequence[Call]) -> bool:
    return all(fn_picklable(fn) for fn in {call.fn for call in calls})


def _workers_can_start() -> bool:
    """Canary probe: can this environment run a worker process at all?

    Used only on the rare :class:`BrokenProcessPool` path to tell a
    sandbox that refuses subprocesses (fall back sequentially) apart from
    a worker killed by its task (surface the failure instead of
    re-running the killer in the parent).
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 0).result(timeout=30) == 0
    except Exception:
        return False


class SequentialBackend:
    """In-process, in-order execution (the determinism reference)."""

    name = "sequential"
    pooled = False

    def __init__(self, jobs: int = 1):
        self.jobs = 1

    def execute(
        self, calls: Sequence[Call], cancel: CancelToken | None = None
    ) -> ExecutionReport:
        return _run_serial(calls, cancel)


class ThreadBackend:
    """``ThreadPoolExecutor`` execution — no pickling, shared memory for
    free, cheap startup.  Pays the GIL on pure-Python tasks, but numpy
    kernels release it, so small numeric batches often beat a process
    pool whose startup cost they cannot amortise."""

    name = "threads"
    pooled = True

    def __init__(self, jobs: int = 1):
        self.jobs = max(1, jobs)

    def execute(
        self, calls: Sequence[Call], cancel: CancelToken | None = None
    ) -> ExecutionReport:
        if cancel is not None:
            cancel.raise_if_cancelled()  # don't submit an already-dead batch
        report = ExecutionReport(
            results=[None] * len(calls),
            seconds=[0.0] * len(calls),
            phases=[{} for _ in calls],
            spans=[[] for _ in calls],
            metrics=[None] * len(calls),
        )
        with ThreadPoolExecutor(max_workers=min(self.jobs, len(calls))) as pool:
            futures = [
                pool.submit(
                    _invoke_in_thread,
                    call.fn,
                    dict(call.kwargs),
                    getattr(call, "trace", False),
                    call.family,
                )
                for call in calls
            ]
            for index, future in enumerate(futures):
                if cancel is not None and cancel.cancelled:
                    for pending in futures[index:]:
                        pending.cancel()  # queued work never starts
                    raise ExecutionCancelled(
                        f"cancelled with {len(calls) - index} call(s) unscheduled"
                    )
                seconds, ident, phases, spans, delta, result = future.result()
                report.seconds[index] = seconds
                report.results[index] = result
                report.phases[index] = phases
                report.spans[index] = spans
                report.metrics[index] = delta
                report.workers.add(ident)
        return report


class ProcessBackend:
    """``ProcessPoolExecutor`` execution — true parallelism at the cost
    of pool startup and parameter/result pickling."""

    name = "processes"
    pooled = True

    def __init__(self, jobs: int = 1):
        self.jobs = max(1, jobs)

    def execute(
        self, calls: Sequence[Call], cancel: CancelToken | None = None
    ) -> ExecutionReport:
        if cancel is not None:
            cancel.raise_if_cancelled()  # don't submit an already-dead batch
        if not _fns_picklable(calls):
            _log.info(
                "%s: unpicklable task function(s); running %d call(s) in-process",
                self.name,
                len(calls),
            )
            return _run_serial(calls, cancel)
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(calls)))
        except OSError:
            _log.warning(
                "%s: process creation refused; running %d call(s) in-process",
                self.name,
                len(calls),
            )
            return _run_serial(calls, cancel)  # process creation refused
        report = ExecutionReport(
            results=[None] * len(calls),
            seconds=[0.0] * len(calls),
            phases=[{} for _ in calls],
            spans=[[] for _ in calls],
            metrics=[None] * len(calls),
        )
        broken = False
        completed = 0  # futures [0, completed) are recorded in the report
        try:
            with pool:
                futures = [
                    pool.submit(
                        _invoke,
                        call.fn,
                        dict(call.kwargs),
                        getattr(call, "trace", False),
                        call.family,
                    )
                    for call in calls
                ]
                for index, future in enumerate(futures):
                    if cancel is not None and cancel.cancelled:
                        for pending in futures[index:]:
                            pending.cancel()  # queued work never starts
                        raise ExecutionCancelled(
                            f"cancelled with {len(calls) - index} call(s) unscheduled"
                        )
                    try:
                        seconds, pid, phases, spans, delta, result = future.result()
                    except BrokenProcessPool as exc:
                        if _workers_can_start():
                            # The environment can run workers, so the pool
                            # broke because a task killed its worker (OOM,
                            # native crash).  Re-running in the parent would
                            # repeat the damage; surface it.  The broken
                            # pool cannot say WHICH task died, so name the
                            # batch.
                            families = sorted({call.family for call in calls})
                            raise RuntimeError(
                                "a worker process died while executing this "
                                f"batch (task families: {', '.join(families)}); "
                                "not retrying sequentially (a task may have "
                                "exhausted memory or crashed native code)"
                            ) from exc
                        broken = True
                        break
                    report.seconds[index] = seconds
                    report.results[index] = result
                    report.phases[index] = phases
                    report.spans[index] = spans
                    report.metrics[index] = delta
                    report.workers.add(pid)
                    completed = index + 1
        except BrokenProcessPool:
            broken = True  # raised by pool shutdown itself
        if broken:
            # Workers cannot start at all (sandboxed environment) — resume
            # in-process from the first call whose future never completed,
            # keeping the results/seconds already recorded so side effects
            # and per-family durations are never duplicated.  Task
            # exceptions propagate untouched.
            _log.warning(
                "%s: worker pool broke before any worker ran; resuming %d "
                "call(s) in-process",
                self.name,
                len(calls) - completed,
            )
            tail = _run_serial(calls[completed:], cancel)
            report.results[completed:] = tail.results
            report.seconds[completed:] = tail.seconds
            report.phases[completed:] = tail.phases
            report.spans[completed:] = tail.spans
            report.metrics[completed:] = tail.metrics
            report.workers |= tail.workers
        return report


@dataclass(frozen=True)
class BackendSpec:
    """A named, registered execution backend.

    Attributes
    ----------
    name:
        Registry/CLI identifier.
    description:
        One-line summary shown by ``python -m repro list``.
    factory:
        ``factory(jobs) -> Backend``; ``None`` for selection modes the
        engine resolves itself (``auto``).
    """

    name: str
    description: str
    factory: Callable[[int], Backend] | None


class BackendRegistry:
    """Name -> :class:`BackendSpec` mapping with did-you-mean lookups."""

    def __init__(self) -> None:
        self._specs: dict[str, BackendSpec] = {}

    def register(self, spec: BackendSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"backend {spec.name!r} is already registered")
        self._specs[spec.name] = spec

    def names(self) -> list[str]:
        return list(self._specs)

    def specs(self) -> list[BackendSpec]:
        return list(self._specs.values())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def get(self, name: str) -> BackendSpec:
        if name not in self._specs:
            known = ", ".join(self.names())
            suggestion = did_you_mean(name, self.names())
            raise KeyError(
                f"unknown backend {name!r}{suggestion} (known: {known})"
            )
        return self._specs[name]


#: Registered execution backends (plus the ``auto`` selection mode).
BACKENDS = BackendRegistry()
BACKENDS.register(
    BackendSpec(
        name=AUTO_BACKEND,
        description="pick a backend per batch from the estimated task cost "
        "(sequential for tiny batches, threads for small ones, processes "
        "for heavy ones); the default",
        factory=None,
    )
)
BACKENDS.register(
    BackendSpec(
        name=SequentialBackend.name,
        description="in-process, in-order execution (the determinism reference)",
        factory=SequentialBackend,
    )
)
BACKENDS.register(
    BackendSpec(
        name=ThreadBackend.name,
        description="thread pool: no pickling, cheap startup; numpy kernels "
        "release the GIL",
        factory=ThreadBackend,
    )
)
BACKENDS.register(
    BackendSpec(
        name=ProcessBackend.name,
        description="process pool: true parallelism, pays pool startup and "
        "pickling",
        factory=ProcessBackend,
    )
)


def get_backend(name: str, jobs: int = 1) -> Backend:
    """Instantiate a registered backend by name.

    ``auto`` cannot be instantiated — it is a per-batch selection mode
    resolved by the engine; asking for it here is a programming error.
    """
    spec = BACKENDS.get(name)
    if spec.factory is None:
        raise ValueError(
            f"backend {name!r} is a selection mode, not an executable backend; "
            "the engine resolves it per batch"
        )
    return spec.factory(jobs)
