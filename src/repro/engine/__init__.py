"""Parallel experiment-execution engine.

The analysis layer regenerates every figure and table of the paper from
thousands of independent Monte-Carlo points.  This package turns those
points into :class:`Task` objects and executes them on a pluggable
backend (:data:`BACKENDS`: ``sequential | threads | processes``,
default ``auto`` picks per batch by estimated cost) with

* deterministic per-task seed derivation (``np.random.SeedSequence.spawn``),
  so every backend is bit-identical to a sequential run at the same seed;
* an on-disk content-addressed result cache keyed on task name, parameters,
  seed and code version;
* task fusion on pooled backends (small same-function tasks coalesce into
  super-tasks; per-subtask durations and cache entries survive);
* wall-clock / throughput instrumentation;
* a sequential in-process fallback (``jobs=1`` or pickling-hostile tasks).

Layering: the engine depends only on numpy and the standard library, so
any layer may import it.  The ``core`` sweep entry points accept their
executor duck-typed (anything implementing
:meth:`ExecutionEngine.map_calls`) and call only the
:mod:`repro.engine.seeding` / :mod:`repro.engine.dispatch` helpers — they
never construct runners or caches themselves.
"""

from repro.engine.backends import (
    BACKENDS,
    Backend,
    BackendSpec,
    CancelToken,
    ExecutionCancelled,
    ProcessBackend,
    SequentialBackend,
    ThreadBackend,
    get_backend,
)
from repro.engine.cache import ResultCache, stable_token
from repro.engine.dispatch import run_calls
from repro.engine.phases import collecting, phase
from repro.engine.registry import ExperimentRegistry, ExperimentSpec, did_you_mean
from repro.engine.runner import EngineStats, ExecutionEngine
from repro.engine.seeding import spawn_seed_at, spawn_seeds
from repro.engine.task import Task, TaskGraph

__all__ = [
    "ExecutionEngine",
    "EngineStats",
    "Backend",
    "BackendSpec",
    "BACKENDS",
    "CancelToken",
    "ExecutionCancelled",
    "get_backend",
    "SequentialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ResultCache",
    "stable_token",
    "ExperimentRegistry",
    "ExperimentSpec",
    "did_you_mean",
    "Task",
    "TaskGraph",
    "phase",
    "collecting",
    "run_calls",
    "spawn_seeds",
    "spawn_seed_at",
]
