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

# The one package-level name: ``perfbench/run.py`` and
# ``perfbench/workloads.py`` import the engine from here.  The runner
# imports nothing above ``repro.obs``, so this cannot close a cycle.
from repro.engine.runner import ExecutionEngine

__all__ = ["ExecutionEngine"]
