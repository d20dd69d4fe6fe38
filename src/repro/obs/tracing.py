"""Span-based tracing with explicit contexts that survive process hops.

A *span* is one named, timed region of work.  Every span record carries
an explicit context — ``trace_id`` (one per traced run), ``id`` (unique
per span) and ``parent`` (the enclosing span's id, ``None`` for roots) —
so a tree can be rebuilt from a flat list no matter which process or
thread emitted each record.  That explicitness is the whole design:
worker processes ship their span lists home inside the engine's
:class:`~repro.engine.backends.ExecutionReport` exactly like the
per-phase second buckets, and the engine re-parents each task's root
spans under the span that was active on the submitting thread.

Collection mirrors :mod:`repro.engine.phases`: state is thread-local,
:func:`collect_spans` installs a collector frame, and nested collectors
shadow outer ones (the task trampoline collects per task, shadowing
any collector active on the engine thread).  Without an active
collector every entry point is a no-op costing one thread-local
attribute read — the zero-overhead-when-off invariant the goldens and
``benchmarks/bench_obs.py`` pin.

Span ids come from ``os.urandom`` — tracing records *observations*
(timings, pids), which are never part of any experiment's numbers, so
the ids do not need to be (and are not) seeded.

Timing: ``ts`` is wall-clock (``time.time``), comparable across
processes; ``dur`` is measured with ``time.perf_counter`` inside the
emitting process, so durations do not inherit wall-clock adjustments.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable

__all__ = [
    "new_id",
    "span",
    "start_span",
    "end_span",
    "collect_spans",
    "is_tracing",
    "current_span_id",
    "active_tracer",
    "Tracer",
]

_STATE = threading.local()


def new_id(nbytes: int = 8) -> str:
    """A fresh random hex identifier (span ids: 8 bytes, trace ids: 16)."""
    return os.urandom(nbytes).hex()


def is_tracing() -> bool:
    """True when a span collector is active on this thread."""
    return bool(getattr(_STATE, "frames", None))


def current_span_id() -> str | None:
    """The id of the innermost open span on this thread, if any."""
    frames = getattr(_STATE, "frames", None)
    if not frames:
        return None
    stack = frames[-1][1]
    return stack[-1]["id"] if stack else None


def active_tracer() -> "Tracer | None":
    """The :class:`Tracer` activated on this thread, if any."""
    return getattr(_STATE, "tracer", None)


@contextmanager
def collect_spans():
    """Collect spans finished inside this block into the yielded list.

    Re-entrant: an inner ``collect_spans`` shadows the outer one for its
    duration, so a nested collector (one task's trampoline) owns its spans and
    the surrounding frame sees nothing — the shipping layer books them
    individually, exactly like the phase collectors.
    """
    frames = getattr(_STATE, "frames", None)
    if frames is None:
        frames = _STATE.frames = []
    sink: list[dict] = []
    stack: list[dict] = []
    frames.append((sink, stack))
    try:
        yield sink
    finally:
        frames.pop()


def start_span(name: str, **attrs: Any) -> dict | None:
    """Open a span on this thread's collector; ``None`` when tracing is off.

    The returned record must be closed with :func:`end_span` (the
    :func:`span` context manager does both).  Parentage is implicit:
    the span opens under the innermost currently-open span of the same
    collector frame.
    """
    frames = getattr(_STATE, "frames", None)
    if not frames:
        return None
    sink, stack = frames[-1]
    record: dict[str, Any] = {
        "name": name,
        "id": new_id(),
        "parent": stack[-1]["id"] if stack else None,
        "ts": time.time(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    if attrs:
        record["attrs"] = attrs
    record["_perf"] = time.perf_counter()
    record["_frame"] = (sink, stack)
    stack.append(record)
    return record


def end_span(record: dict | None) -> None:
    """Close a span opened with :func:`start_span` (no-op for ``None``).

    The record lands in the collector frame that opened it, even if a
    nested collector has been installed since — each record remembers
    its frame, so shipping layers cannot steal each other's spans.
    """
    if record is None:
        return
    sink, stack = record.pop("_frame")
    record["dur"] = time.perf_counter() - record.pop("_perf")
    if stack and stack[-1] is record:
        stack.pop()
    else:  # out-of-order close (a task leaked a span): stay consistent
        try:
            stack.remove(record)
        except ValueError:
            pass
    sink.append(record)


@contextmanager
def span(name: str, **attrs: Any):
    """Trace the enclosed block as one span (no-op when tracing is off)."""
    record = start_span(name, **attrs)
    try:
        yield record
    finally:
        end_span(record)


class Tracer:
    """Owner of one trace: a ``trace_id`` plus every collected span.

    Usage (the CLI's ``--trace`` flow)::

        tracer = Tracer()
        with tracer.activate():
            with span("run:fig4"):
                ...   # engine batches adopt worker spans into the tracer

    ``activate()`` installs a collector on the calling thread and marks
    this tracer as the thread's *active tracer*, which is how the
    execution engine discovers per-batch that spans should be collected
    and shipped home from workers.  Spans finished on the thread drain
    into the tracer when the block exits; worker-side spans arrive
    earlier through :meth:`adopt`.  Thread-safe: ``adopt``/``extend``
    may be called from any thread while activated.
    """

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id if trace_id is not None else new_id(16)
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    @contextmanager
    def activate(self):
        """Collect spans emitted on this thread into this tracer."""
        previous = getattr(_STATE, "tracer", None)
        _STATE.tracer = self
        try:
            with collect_spans() as sink:
                yield self
        finally:
            _STATE.tracer = previous
            self.extend(sink)

    def extend(self, spans: Iterable[dict]) -> None:
        """Record already-parented spans (tags them with the trace id)."""
        spans = list(spans)
        for record in spans:
            record["trace_id"] = self.trace_id
        with self._lock:
            self._spans.extend(spans)

    def adopt(self, spans: Iterable[dict], parent_id: str | None = None) -> None:
        """Record spans shipped home from a worker, re-parenting roots.

        Worker-side collectors know nothing about the submitting task,
        so their root spans carry ``parent=None``; adoption grafts those
        roots under ``parent_id`` (the span active on the submitting
        thread) and stamps every record with this trace's id.
        """
        spans = list(spans)
        for record in spans:
            if record.get("parent") is None and parent_id is not None:
                record["parent"] = parent_id
            record["trace_id"] = self.trace_id
        with self._lock:
            self._spans.extend(spans)

    @property
    def spans(self) -> list[dict]:
        """A copy of every span recorded so far."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
