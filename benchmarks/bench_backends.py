"""E-BACK — per-backend wall clock on a fixed Fig. 4 yield sweep.

Runs the same seeded Monte-Carlo sweep on every executable backend
(``sequential``, ``threads``, ``processes``), each
with task fusion on and off, plus the ``auto`` selection mode, and
writes the wall-clock table to ``benchmarks/BENCH_backends.json``.

Cross-backend bit-identity is asserted unconditionally: every task
carries its own spawn-derived seed, so all backends must reproduce the
sequential yield curves exactly.  The speedups are *reported*, not
asserted — on a single-core host every pool is overhead by construction,
and the table exists precisely to record that honestly (the
``speedup_context`` field explains sub-1x rows).

The ``sequential`` + fusion row is both the bit-identity reference and
the 1.0 speedup baseline, so the table is self-consistent (historically
speedups were computed against a *separate* no-engine run, which made
the sequential row itself report ~1.06x).  The sample bank is cleared
before every timed row: in-process rows would otherwise serve banked
draws warmed by earlier rows while fresh worker pools start cold, and
the table is about backend dispatch cost, not bank state.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import bench_batch_size, bench_jobs

from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.core.sample_bank import clear_sample_bank
from repro.engine import ExecutionEngine

RESULT_PATH = Path(__file__).parent / "BENCH_backends.json"

#: A reduced Fig. 4 grid: 24 engine tasks, enough to exercise fusion
#: (multiple waves per worker) while keeping 7 timed runs affordable.
SWEEP_KWARGS = dict(
    steps_ghz=(0.05, 0.06, 0.07),
    sigmas_ghz=(0.014, 0.1323),
    sizes=(10, 27, 65, 100),
    seed=7,
)

#: (backend, fuse) rows of the table; ``auto`` fuses by default.
TABLE_ROWS = [
    ("sequential", True),
    ("sequential", False),
    ("threads", True),
    ("threads", False),
    ("processes", True),
    ("processes", False),
    ("auto", True),
]


def _timed_sweep(engine: ExecutionEngine | None, batch: int):
    started = time.perf_counter()
    result = run_fig4_yield_sweep(**SWEEP_KWARGS, batch_size=batch, engine=engine)
    return result, time.perf_counter() - started


def test_backend_table_bit_identical_wall_clock():
    """Every backend reproduces the sequential curves; timings tabled."""
    cores = os.cpu_count() or 1
    jobs = max(2, bench_jobs())
    batch = min(bench_batch_size(400), 1000)

    _timed_sweep(None, batch)  # warm-up: first-touch allocations, imports

    rows = []
    baseline = None
    baseline_seconds = None
    for name, fuse in TABLE_ROWS:
        engine = ExecutionEngine(jobs=jobs, use_cache=False, backend=name, fuse=fuse)
        clear_sample_bank()
        result, seconds = _timed_sweep(engine, batch)
        if baseline is None:
            # First row is (sequential, fuse=True): the reference curves
            # AND the 1.0 speedup denominator.
            baseline, baseline_seconds = result, seconds
        assert result.curves.keys() == baseline.curves.keys()
        for key in baseline.curves:
            assert result.curves[key] == baseline.curves[key], (
                f"backend {name!r} (fuse={fuse}) diverged on {key}"
            )
        rows.append(
            {
                "backend": name,
                "task_fusion": fuse,
                "seconds": round(seconds, 4),
                "speedup_vs_sequential": round(baseline_seconds / seconds, 3)
                if seconds > 0
                else None,
                "workers_used": engine.stats.workers_used,
                "tasks_executed": engine.stats.tasks_executed,
                "tasks_fused": engine.stats.tasks_fused,
                "fusion_batches": engine.stats.fusion_batches,
            }
        )

    best = max(rows, key=lambda row: row["speedup_vs_sequential"] or 0.0)
    context = None
    if cores <= 1:
        context = (
            f"host has {cores} core(s): pooled rows measure pure pool "
            "overhead; only the in-process rows (sequential, and auto's "
            "sequential downgrade) can reach ~1.0x here"
        )
    elif best["speedup_vs_sequential"] < 1.0:
        context = (
            "no backend beat sequential despite multiple cores — "
            "per-task work too small to amortise pool startup at this batch"
        )

    record = {
        "benchmark": "fig4_backend_table",
        "num_tasks": len(SWEEP_KWARGS["steps_ghz"])
        * len(SWEEP_KWARGS["sigmas_ghz"])
        * len(SWEEP_KWARGS["sizes"]),
        "batch_size": batch,
        "cores": cores,
        "jobs": jobs,
        "sequential_baseline_seconds": round(baseline_seconds, 4),
        "rows": rows,
        "best_backend": best["backend"],
        "best_speedup": best["speedup_vs_sequential"],
        "speedup_context": context,
        "bit_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"\n[backends] baseline (sequential+fusion): {baseline_seconds:.2f}s")
    for row in rows:
        print(
            f"[backends] {row['backend']:>13} fuse={str(row['task_fusion']):5} "
            f"{row['seconds']:7.2f}s  {row['speedup_vs_sequential']:5.2f}x  "
            f"workers={row['workers_used']} fused={row['tasks_fused']}"
        )
    if context:
        print(f"[backends] NOTE: {context}")
    print(f"[backends] wrote {RESULT_PATH}")
