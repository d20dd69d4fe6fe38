"""Parallel experiment-execution engine.

The analysis layer regenerates every figure and table of the paper from
thousands of independent Monte-Carlo points.  This package turns those
points into :class:`Task` objects and executes them — in-process at
``jobs=1`` (or when at most one task is pending), on a process pool of
``jobs`` workers otherwise — with

* deterministic per-task seed derivation (``np.random.SeedSequence.spawn``),
  so the pool is bit-identical to an in-process run at the same seed;
* an on-disk content-addressed result cache keyed on task name, parameters,
  seed and code version;
* wall-clock / throughput instrumentation;
* an in-process fallback for pickling-hostile tasks and environments
  that cannot start worker processes.

Layering: the engine depends only on numpy and the standard library, so
any layer may import it.  The ``core`` sweep entry points accept their
executor duck-typed (anything implementing
:meth:`ExecutionEngine.map_calls`) and call only the
:mod:`repro.engine.seeding` / :mod:`repro.engine.dispatch` helpers — they
never construct runners or caches themselves.
"""

from repro.engine.backends import CancelToken, ExecutionCancelled
from repro.engine.cache import ResultCache, stable_token
from repro.engine.dispatch import run_calls
from repro.engine.phases import collecting, phase
from repro.engine.registry import ExperimentSpec, Registry, unknown_name
from repro.engine.runner import EngineStats, ExecutionEngine
from repro.engine.seeding import spawn_seed_at, spawn_seeds
from repro.engine.task import Task

__all__ = [
    "ExecutionEngine",
    "EngineStats",
    "CancelToken",
    "ExecutionCancelled",
    "ResultCache",
    "stable_token",
    "ExperimentSpec",
    "Registry",
    "unknown_name",
    "Task",
    "phase",
    "collecting",
    "run_calls",
    "spawn_seeds",
    "spawn_seed_at",
]
