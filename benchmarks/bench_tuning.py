"""E-TUN — post-fabrication repair: throughput and determinism.

Two measurements back the tuning subsystem:

1. **Greedy-repair throughput** — devices repaired per second on a
   collided heavy-hex batch (the regime the ``tunedyield`` experiment
   runs in), plus the recovered-yield gain, for both shipped strategies.
2. **Parallel == sequential bit-identity** — a tuned, chunk-streamed
   yield curve (``yield_vs_qubits`` through a 4-worker engine) must
   reproduce the same curve on a 1-worker engine *exactly*: same
   collision-free counts, same repaired counts, same accepted-shift
   totals at every size.  This is the engine's spawn-seed contract
   extended through the repair stage.

Results are written to ``benchmarks/BENCH_tuning.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.architecture import get_architecture
from repro.core.fabrication import FabricationModel
from repro.core.yield_model import yield_vs_qubits
from repro.engine import ExecutionEngine
from repro.stats import StatsOptions
from repro.tuning import (
    AnnealingRepair,
    GreedyLocalRepair,
    TuningOptions,
    repair_batch,
)

RESULT_PATH = Path(__file__).parent / "BENCH_tuning.json"

#: Device size / precision of the benchmark batch: at 65 qubits and the
#: paper's laser-tuned sigma most dies are collided but repairable — the
#: regime where repair throughput actually matters.
NUM_QUBITS = 65
SIGMA = 0.014
BATCH_SIZE = 600
SEED = 2022

#: Device sizes of the parallel bit-identity curve (one engine task each).
PARITY_SIZES = (20, 40, 65, 80)
PARITY_CHUNK_SIZE = 150
PARITY_JOBS = 4


def _bench_strategy(allocation, frequencies, strategy):
    opts = TuningOptions(strategy=strategy)
    rng = np.random.default_rng(SEED + 1)
    started = time.perf_counter()
    outcome = repair_batch(allocation, frequencies, opts, rng)
    elapsed = time.perf_counter() - started
    collided = int((~outcome.as_fab_mask).sum())
    return {
        "strategy": strategy.name,
        "collided_devices": collided,
        "repaired_devices": outcome.num_repaired,
        "as_fab_yield": round(outcome.num_as_fab / BATCH_SIZE, 4),
        "repaired_yield": round(outcome.num_free / BATCH_SIZE, 4),
        "seconds": round(elapsed, 4),
        "devices_per_second": round(collided / elapsed, 1) if elapsed > 0 else None,
        "total_tunes": outcome.total_tunes,
    }


def test_repair_throughput_and_parallel_bit_identity():
    """Measure repair throughput and pin the parallel determinism contract."""
    arch = get_architecture(None)
    allocation = arch.allocate(arch.lattice(NUM_QUBITS))
    fabrication = FabricationModel(sigma_ghz=SIGMA)
    frequencies = fabrication.sample_batch(
        allocation, BATCH_SIZE, np.random.default_rng(SEED)
    )

    greedy = _bench_strategy(allocation, frequencies, GreedyLocalRepair())
    anneal = _bench_strategy(allocation, frequencies, AnnealingRepair())
    assert greedy["repaired_devices"] > 0, "benchmark batch produced no repairs"
    assert greedy["repaired_yield"] > greedy["as_fab_yield"]

    # Parallel == sequential bit-identity through the tuned, chunked sweep.
    kwargs = dict(
        sigma_ghz=SIGMA,
        step_ghz=allocation.spec.step_ghz,
        sizes=PARITY_SIZES,
        batch_size=BATCH_SIZE,
        seed=SEED,
        stats=StatsOptions(chunk_size=PARITY_CHUNK_SIZE),
        tuning=TuningOptions(),
    )
    sequential = yield_vs_qubits(
        executor=ExecutionEngine(jobs=1, use_cache=False), **kwargs
    )
    engine = ExecutionEngine(jobs=PARITY_JOBS, use_cache=False)
    parallel = yield_vs_qubits(executor=engine, **kwargs)

    def counts(curve):
        return [
            (p.num_collision_free, p.num_repaired, p.tuned_qubits, p.total_tunes)
            for p in curve.points
        ]

    identical = counts(sequential) == counts(parallel)
    assert identical, "parallel tuned run diverged from the sequential one"
    assert sequential.points == parallel.points

    record = {
        "benchmark": "post_fabrication_repair",
        "num_qubits": NUM_QUBITS,
        "sigma_ghz": SIGMA,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "strategies": [greedy, anneal],
        "parallel_bit_identity": {
            "jobs": PARITY_JOBS,
            "chunk_size": PARITY_CHUNK_SIZE,
            "sizes": list(PARITY_SIZES),
            "num_collision_free": [p.num_collision_free for p in sequential.points],
            "num_repaired": [p.num_repaired for p in sequential.points],
            "total_tunes": [p.total_tunes for p in sequential.points],
            "workers_used": engine.stats.workers_used,
            "identical": identical,
        },
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\n[tuning] greedy: {greedy['repaired_devices']}/{greedy['collided_devices']} "
        f"collided dies repaired in {greedy['seconds']}s "
        f"({greedy['devices_per_second']} dev/s), yield "
        f"{greedy['as_fab_yield']} -> {greedy['repaired_yield']}"
    )
    print(
        f"[tuning] anneal: {anneal['repaired_devices']}/{anneal['collided_devices']} "
        f"repaired in {anneal['seconds']}s ({anneal['devices_per_second']} dev/s)"
    )
    print(
        f"[tuning] parallel(jobs={PARITY_JOBS}) == sequential: {identical} "
        f"({engine.stats.workers_used} workers used)"
    )
    print(f"[tuning] wrote {RESULT_PATH}")
