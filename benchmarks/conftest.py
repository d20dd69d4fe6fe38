"""Shared fixtures for the figure/table regeneration benchmarks.

Every benchmark regenerates the data behind one table or figure of the
paper and prints the corresponding rows/series.  The Monte-Carlo batch
sizes default to a laptop-friendly scale; set ``REPRO_BENCH_BATCH`` (e.g.
to 10000, the paper's value) and ``REPRO_BENCH_FULL=1`` for a full-scale
run.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.compiler.routing import clear_routing_cache
from repro.core.architecture import clear_architecture_caches
from repro.core.sample_bank import clear_sample_bank
from repro.engine import ExecutionEngine


def bench_batch_size(default: int = 3000) -> int:
    """Monte-Carlo batch size used by the benchmarks."""
    return int(os.environ.get("REPRO_BENCH_BATCH", default))


def full_run() -> bool:
    """True when the full-scale (paper-sized) sweep was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_jobs() -> int:
    """Worker processes for the engine (``REPRO_BENCH_JOBS``, default: all)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", os.cpu_count() or 1))


def reset_process_caches() -> None:
    """Empty the process-wide memo caches before a timed arm.

    The sample bank, the routing cache and the architecture memo would
    otherwise carry one arm's warm state into the next (and into the
    workers a pool forks from this process).
    """
    clear_sample_bank()
    clear_routing_cache()
    clear_architecture_caches()


@pytest.fixture(scope="session")
def engine() -> ExecutionEngine:
    """Shared execution engine (cache off so timings stay honest)."""
    return ExecutionEngine(jobs=bench_jobs(), use_cache=False)


@pytest.fixture(scope="session")
def study(engine) -> ArchitectureStudy:
    """Architecture study shared by the Fig. 8 / Fig. 9 / Fig. 10 benchmarks.

    Carries the session engine, so the figure drivers prefetch chiplet
    bins, assemblies and monolithic Monte-Carlo runs in parallel.
    """
    batch = bench_batch_size()
    config = StudyConfig(
        chiplet_batch_size=batch,
        monolithic_batch_size=batch,
        seed=2022,
    )
    return ArchitectureStudy(config, engine=engine)


@pytest.fixture(scope="session")
def application_chiplet_sizes() -> tuple[int, ...]:
    """Chiplet sizes used by the application-level benchmarks.

    The default covers the square systems highlighted in Fig. 9(a)/Fig. 10(b)
    (where the paper locates the MCM advantage); the full 102-configuration
    sweep is enabled with ``REPRO_BENCH_FULL=1``.
    """
    if full_run():
        return (10, 20, 40, 60, 90, 120, 160, 200, 250)
    return (20, 40, 60, 90)
