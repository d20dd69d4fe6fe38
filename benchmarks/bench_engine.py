"""E-ENG — the execution engine, measured: jobs=1 vs the pool + staged kernel.

Two measurements, written to ``benchmarks/BENCH_engine.json``:

* ``fig4_detuning_sweep``: one row pair over the Fig. 4 Monte-Carlo
  grid — the engine at ``jobs=1`` (every batch in-process) vs. the
  engine on its process pool (``jobs`` = ``REPRO_BENCH_JOBS``, at least
  2).  Bit-identical yields are asserted unconditionally.  The process
  caches (routing cache, architecture memo) are emptied before each
  timed arm, so neither arm inherits the other's warm state — forked
  workers would otherwise start with whatever the in-process arm had
  memoised.  Each arm is timed as the median of
  three runs, alternating ``jobs=1`` and the pool, so one slow pool
  start-up does not decide the record.  The speedup is recorded with a noise
  band: on a single-core host the pool is pure overhead, so ~1.0x or
  below is the honest expectation there and > 1x only when real cores
  exist.
* ``staged_collision_mask``: the staged shrinking-subset collision
  kernel vs. the historical single-pass full-batch evaluation, at the
  yield phase transition where staging pays.  Bit-identical masks are
  asserted, and the kernel speedup is asserted > 1x (>= 1.5x under
  ``REPRO_BENCH_STRICT=1``) — this is a per-core win, independent of
  how many workers the host offers.  A 10-row high-yield batch on the
  same plan, where every device outlives every edge block, is checked
  and timed too and recorded under ``small_batch`` without a floor.

The pool-speedup assertion (>= 2x) only fires with
``REPRO_BENCH_STRICT=1`` on >= 4 cores; wall-clock numbers on shared
CI runners are too noisy to gate a build on by default, even as a
median of three runs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import bench_batch_size, bench_jobs, reset_process_caches

from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.frequencies import FrequencySpec, HeavyHexThreeFrequencyPlan
from repro.engine.runner import ExecutionEngine
from repro.topology.heavy_hex import heavy_hex_by_qubit_count

RESULT_PATH = Path(__file__).parent / "BENCH_engine.json"

SWEEP_KWARGS = dict(
    steps_ghz=(0.04, 0.05, 0.06, 0.07),
    sigmas_ghz=(0.1323, 0.014, 0.006),
    sizes=(5, 10, 20, 40, 65, 100, 200, 300, 500),
    seed=7,
)

#: Measured speedups below this are regressions; between this and 1.0 is
#: measurement noise.
_NOISE_FLOOR = 0.9

#: Alternating runs per arm of the pool sweep; each arm's time is their median.
_SWEEP_RUNS = 3

_RECORD: dict = {}


def _flush() -> None:
    RESULT_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"[engine] wrote {RESULT_PATH}")


def _timed_sweep(engine: ExecutionEngine, batch_size: int):
    reset_process_caches()
    started = time.perf_counter()
    result = run_fig4_yield_sweep(
        **SWEEP_KWARGS, batch_size=batch_size, engine=engine
    )
    return result, time.perf_counter() - started


def test_engine_pool_sweep_matches_one_job_and_is_fast(benchmark):
    """Pool Fig. 4 sweeps are bit-identical to ``jobs=1``, and faster
    when the hardware has the cores to show it."""
    cores = os.cpu_count() or 1
    jobs = max(2, bench_jobs())
    batch = min(bench_batch_size(1000), 2000)

    in_process = ExecutionEngine(jobs=1, use_cache=False)
    engine = ExecutionEngine(jobs=jobs, use_cache=False)
    seq_runs, par_runs = [], []

    def alternate():
        for _ in range(_SWEEP_RUNS):
            sequential, seconds = _timed_sweep(in_process, batch)
            seq_runs.append(seconds)
            parallel, seconds = _timed_sweep(engine, batch)
            par_runs.append(seconds)
            assert parallel.curves.keys() == sequential.curves.keys()
            for key in sequential.curves:
                assert parallel.curves[key] == sequential.curves[key], key

    benchmark.pedantic(alternate, rounds=1, iterations=1)
    seq_seconds = statistics.median(seq_runs)
    par_seconds = statistics.median(par_runs)

    speedup = seq_seconds / par_seconds if par_seconds > 0 else float("inf")
    num_points = len(SWEEP_KWARGS["steps_ghz"]) * len(SWEEP_KWARGS["sigmas_ghz"]) * len(
        SWEEP_KWARGS["sizes"]
    )
    regression = speedup < _NOISE_FLOOR
    workers_used = engine.stats.workers_used
    if speedup >= 1.0:
        context = None
    elif cores <= 1:
        context = (
            f"host has {cores} core(s): the pool can only add startup and "
            "pickling cost here; sub-1.0x readings are that overhead"
        )
    elif jobs > cores:
        context = (
            f"{jobs} jobs oversubscribe {cores} physical core(s); "
            "pool overhead dominates"
        )
    else:
        context = (
            "parallel slower than sequential despite available cores — "
            "investigate worker startup / pickling overhead for this batch"
        )
    _RECORD["fig4_detuning_sweep"] = {
        "num_points": num_points,
        "batch_size": batch,
        "cores": cores,
        "jobs": jobs,
        "workers_used": workers_used,
        "runs_per_arm": _SWEEP_RUNS,
        "sequential_seconds": round(seq_seconds, 4),
        "parallel_seconds": round(par_seconds, 4),
        "sequential_runs": [round(s, 4) for s in seq_runs],
        "parallel_runs": [round(s, 4) for s in par_runs],
        "speedup": round(speedup, 3),
        "speedup_regression": regression,
        "speedup_context": context,
        "bit_identical": True,
        "tasks_per_second_parallel": round(num_points / par_seconds, 2)
        if par_seconds > 0
        else None,
    }
    print(f"\n[engine] jobs=1 {seq_seconds:.2f}s, jobs={jobs} {par_seconds:.2f}s "
          f"({workers_used} worker(s) used on {cores} cores) "
          f"-> speedup {speedup:.2f}x")
    if context:
        print(f"[engine] NOTE: {context}")
    _flush()

    if cores >= 4 and os.environ.get("REPRO_BENCH_STRICT", "0") == "1":
        assert speedup >= 2.0, (
            f"expected >=2x speedup on {cores} cores, measured {speedup:.2f}x"
        )


def _unstaged_mask(allocation, freqs, thresholds) -> np.ndarray:
    """The historical kernel, verbatim: every criterion over the full batch."""
    th = thresholds
    alpha = allocation.anharmonicities
    collided = np.zeros(freqs.shape[0], dtype=bool)
    edges = allocation.directed_edges
    if edges.shape[0]:
        fi = freqs[:, edges[:, 0]]
        fj = freqs[:, edges[:, 1]]
        ai = alpha[edges[:, 0]][np.newaxis, :]
        aj = alpha[edges[:, 1]][np.newaxis, :]
        collided |= (np.abs(fi - fj) < th.type1_ghz).any(axis=1)
        collided |= (np.abs(fi + ai / 2.0 - fj) < th.type2_ghz).any(axis=1)
        collided |= (
            (np.abs(fi - (fj + aj)) < th.type3_ghz)
            | (np.abs(fj - (fi + ai)) < th.type3_ghz)
        ).any(axis=1)
        collided |= ((fj < fi + ai) | (fi < fj)).any(axis=1)
    triples = allocation.control_triples
    if triples.shape[0]:
        fi = freqs[:, triples[:, 0]]
        fj = freqs[:, triples[:, 1]]
        fk = freqs[:, triples[:, 2]]
        ai = alpha[triples[:, 0]][np.newaxis, :]
        aj = alpha[triples[:, 1]][np.newaxis, :]
        ak = alpha[triples[:, 2]][np.newaxis, :]
        collided |= (np.abs(fj - fk) < th.type5_ghz).any(axis=1)
        collided |= (
            (np.abs(fj - (fk + ak)) < th.type6_ghz)
            | (np.abs(fk - (fj + aj)) < th.type6_ghz)
        ).any(axis=1)
        collided |= (np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz).any(axis=1)
    return ~collided


def test_staged_collision_mask_matches_unstaged_and_is_fast():
    """The staged kernel == the single-pass kernel, severalfold cheaper."""
    lattice = heavy_hex_by_qubit_count(500)
    allocation = HeavyHexThreeFrequencyPlan().allocate(lattice, spec=FrequencySpec())
    thresholds = CollisionThresholds()
    batch = min(bench_batch_size(1000), 2000)
    # sigma at the laser-tuned phase transition: nearly every device dies
    # on a pair criterion, which is exactly where staging pays.
    rng = np.random.default_rng(7)
    freqs = rng.normal(
        allocation.ideal_frequencies, 0.014, size=(batch, allocation.num_qubits)
    )

    reference = _unstaged_mask(allocation, freqs, thresholds)
    staged = collision_free_mask(allocation, freqs, thresholds)
    assert np.array_equal(staged, reference), "staged mask diverged"

    unstaged_seconds = min(
        _timed(lambda: _unstaged_mask(allocation, freqs, thresholds))
        for _ in range(3)
    )
    staged_seconds = min(
        _timed(lambda: collision_free_mask(allocation, freqs, thresholds))
        for _ in range(3)
    )
    speedup = unstaged_seconds / staged_seconds if staged_seconds > 0 else float("inf")

    # A 10-row high-yield batch (the service's b10 jobs, repair rounds):
    # every device lives through every edge block.  Recorded, not gated.
    small = rng.normal(
        allocation.ideal_frequencies, 0.004, size=(10, allocation.num_qubits)
    )
    small_reference = _unstaged_mask(allocation, small, thresholds)
    assert np.array_equal(
        collision_free_mask(allocation, small, thresholds), small_reference
    ), "staged mask diverged on the small batch"
    small_unstaged = min(
        _timed(lambda: _unstaged_mask(allocation, small, thresholds)) for _ in range(50)
    )
    small_staged = min(
        _timed(lambda: collision_free_mask(allocation, small, thresholds))
        for _ in range(50)
    )

    assert speedup > 1.0, (
        f"staged collision kernel slower than single-pass ({speedup:.2f}x)"
    )
    if os.environ.get("REPRO_BENCH_STRICT", "0") == "1":
        assert speedup >= 1.5, f"expected >=1.5x kernel speedup, got {speedup:.2f}x"

    _RECORD["staged_collision_mask"] = {
        "num_qubits": allocation.num_qubits,
        "batch_size": batch,
        "sigma_ghz": 0.014,
        "unstaged_seconds": round(unstaged_seconds, 5),
        "staged_seconds": round(staged_seconds, 5),
        "speedup": round(speedup, 2),
        "speedup_regression": speedup < 1.0,
        "bit_identical": True,
        "collision_free_fraction": round(float(reference.mean()), 5),
        "small_batch": {
            "batch_size": small.shape[0],
            "sigma_ghz": 0.004,
            "collision_free_fraction": round(float(small_reference.mean()), 5),
            "unstaged_seconds": round(small_unstaged, 6),
            "staged_seconds": round(small_staged, 6),
            "speedup": round(small_unstaged / small_staged, 2),
        },
    }
    print(
        f"\n[engine] staged mask ({allocation.num_qubits}q x{batch}): "
        f"single-pass {unstaged_seconds * 1e3:.1f}ms, staged "
        f"{staged_seconds * 1e3:.1f}ms -> speedup {speedup:.2f}x; "
        f"x{small.shape[0]} high-yield: single-pass {small_unstaged * 1e3:.3f}ms, "
        f"staged {small_staged * 1e3:.3f}ms"
    )
    _flush()


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
