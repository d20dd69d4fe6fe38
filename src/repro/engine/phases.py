"""Per-phase wall-clock accounting threaded through engine workers.

The trend harness (``benchmarks/trend.py``) can only attribute a cross-PR
regression when the engine says *where* task time went.  This module is
that channel: hot-path kernels mark themselves with :func:`phase` —
``sample`` (fabrication draws), ``mask`` (collision screening), ``repair``
(frequency repair), ``compile`` (transpilation), ``score`` (fidelity
products).  Inside ``compile`` each compiler pass books its own
``compile.<pass>`` phase — ``compile.decompose``, ``compile.layout``,
``compile.route``, ``compile.swap-expand``, ``compile.metrics`` — so
``compile`` itself keeps only the time outside the passes.  The backend
trampolines wrap every task invocation in
:func:`collecting`, so each task ships a ``{phase: seconds}`` dict home
with its result no matter which process or thread ran it.  The engine
aggregates the dicts into ``EngineStats.seconds_by_phase``, surfaced via
``--dump-json`` and the service ``/stats`` endpoint.

Design constraints, in order:

1. **Free when idle.**  ``phase`` is on hot paths that also run outside
   the engine (unit tests, library use); without an active collector it
   is a no-op costing one thread-local attribute read.
2. **Exclusive time.**  Entering an inner phase pauses the outer one
   (``repair`` calls ``mask``; their buckets must not double-count), so
   the buckets sum to at most the task's wall-clock.
3. **No engine imports.**  Stdlib only (plus :mod:`repro.obs.tracing`,
   itself stdlib-only and dependency-free), so ``core``/``tuning``/
   ``compiler`` modules can mark phases without import cycles.

:func:`phase` doubles as the tracing bridge: when a span collector is
active on the thread (``--trace`` runs), each phase additionally emits a
``phase:<name>`` span — inclusive wall-clock, unlike the exclusive
bucket accounting — so traces show where task time went without any
extra annotations in the kernels.

Thread safety: state is ``threading.local`` — each worker thread collects
its own frames, and nested collectors shadow outer ones (a fused
super-task collects per subtask; the surrounding trampoline frame then
sees nothing, which is exactly right — the engine books the subtask
dicts individually).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.tracing import end_span, is_tracing, start_span

__all__ = ["phase", "collecting"]

_STATE = threading.local()


@contextmanager
def collecting():
    """Collect phase seconds recorded inside this block.

    Yields the ``{phase: seconds}`` dict, live-updated as phases exit.
    Re-entrant: an inner ``collecting`` shadows the outer one for its
    duration (phases attribute to the innermost active collector).
    """
    frames = getattr(_STATE, "frames", None)
    if frames is None:
        frames = _STATE.frames = []
    bucket: dict[str, float] = {}
    stack: list[list] = []  # [name, started] entries, innermost last
    frames.append((bucket, stack))
    try:
        yield bucket
    finally:
        frames.pop()


@contextmanager
def phase(name: str):
    """Attribute the enclosed wall-clock to ``name`` (exclusive time).

    Entering a nested phase pauses the enclosing one: time spent in
    ``mask`` while inside ``repair`` books to ``mask`` alone.  Without
    an active :func:`collecting` frame on this thread, a no-op.
    """
    record = start_span("phase:" + name) if is_tracing() else None
    frames = getattr(_STATE, "frames", None)
    if not frames:
        try:
            yield
        finally:
            end_span(record)
        return
    bucket, stack = frames[-1]
    now = time.perf_counter()
    if stack:
        outer = stack[-1]
        bucket[outer[0]] = bucket.get(outer[0], 0.0) + (now - outer[1])
    entry = [name, now]
    stack.append(entry)
    try:
        yield
    finally:
        now = time.perf_counter()
        stack.pop()
        bucket[entry[0]] = bucket.get(entry[0], 0.0) + (now - entry[1])
        if stack:
            stack[-1][1] = now  # resume the enclosing phase
        end_span(record)
