"""How a batch of cache misses executes: in-process or on a process pool.

The :class:`~repro.engine.runner.ExecutionEngine` decides *what* to run
(the cache misses of one batch); this module runs that ordered list of
:class:`Call` objects and returns an :class:`ExecutionReport` aligned
with it.  There are exactly two paths: :func:`_run_serial` in the
calling process and :func:`run_pool` on a ``ProcessPoolExecutor``.  The
engine takes the first at ``jobs == 1`` or when at most one task is
pending, the second otherwise.  Results are bit-identical either way —
each task already carries its own spawn-derived seed, and neither path
reorders or re-seeds anything.

Failure semantics: a task exception always propagates; the in-process
fallback is reserved for infrastructure problems only — an unpicklable
task function, an environment that refuses to start processes, or a
pool that breaks before any worker ever ran.  When a broken pool does
fall back, only the calls whose futures never completed are re-run
(completed results and durations are kept), so side-effecting tasks
never execute twice.

Cancellation: both paths accept an optional :class:`CancelToken`.  A
set token stops the scheduling of remaining calls — in-flight work runs
to completion (a process cannot be safely killed mid-task), queued
futures are cancelled — and surfaces as :class:`ExecutionCancelled`.
The token is a plain ``threading.Event`` wrapper, so the service layer
can flip it from any thread.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.phases import collecting
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import collect_spans
from repro.obs.tracing import span as trace_span

_log = get_logger("engine.backends")

__all__ = [
    "Call",
    "ExecutionReport",
    "CancelToken",
    "ExecutionCancelled",
    "fn_picklable",
    "run_pool",
]


class ExecutionCancelled(RuntimeError):
    """A batch stopped because its :class:`CancelToken` was set.

    Raised between calls inside a batch or by the engine between
    batches; completed call results inside the aborted batch are
    discarded — cancellation is a request to stop producing, not a
    partial-result channel.
    """


class CancelToken:
    """Thread-safe one-way cancellation flag shared across layers.

    The service layer flips it from the event loop, the engine checks it
    between task batches, and both execution paths check it between call
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
    """One unit of batch work: ``fn(**kwargs)`` plus its task family.

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
    """Per-call outcomes of one batch, aligned with the input.

    ``workers`` holds the PIDs that actually executed something — its
    size is the number of distinct workers used.

    ``phases`` carries each call's ``{phase: seconds}`` wall-clock
    buckets (see :mod:`repro.engine.phases`), measured in whichever
    process ran the call.  ``spans`` carries each call's collected span
    records (empty unless the call asked for tracing via
    ``Call.trace``).  ``metrics`` carries each call's metrics-registry
    delta (``None`` when nothing moved or the call ran in the engine's
    own process — see
    :meth:`repro.obs.metrics.MetricsRegistry.delta_since`); the engine
    merges cross-process deltas at report time.
    """

    results: list[Any]
    seconds: list[float]
    workers: set[int] = field(default_factory=set)
    phases: list[dict[str, float]] = field(default_factory=list)
    spans: list[list[dict]] = field(default_factory=list)
    metrics: list[Any] = field(default_factory=list)


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


def _run_serial(
    calls: Sequence[Call], cancel: CancelToken | None = None
) -> ExecutionReport:
    """In-process execution of a call batch (also the infra fallback).

    Traced calls collect their spans in a dedicated frame (shadowing any
    collector active on the engine thread) and ship them through
    ``report.spans`` like the pool does, so span trees come out
    identical on both paths.
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
            call.fn, call.kwargs, call.trace, call.family
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


def run_pool(
    calls: Sequence[Call], jobs: int, cancel: CancelToken | None = None
) -> ExecutionReport:
    """Run every call on a pool of up to ``jobs`` worker processes.

    The report is in input order whatever the completion order.  Task
    exceptions propagate; infrastructure failures fall back in-process
    (see the module docstring).
    """
    if cancel is not None:
        cancel.raise_if_cancelled()  # don't submit an already-dead batch
    if not _fns_picklable(calls):
        _log.info(
            "unpicklable task function(s); running %d call(s) in-process",
            len(calls),
        )
        return _run_serial(calls, cancel)
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(calls)))
    except OSError:
        _log.warning(
            "process creation refused; running %d call(s) in-process", len(calls)
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
                pool.submit(_invoke, call.fn, dict(call.kwargs), call.trace, call.family)
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
            "worker pool broke before any worker ran; resuming %d call(s) "
            "in-process",
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
