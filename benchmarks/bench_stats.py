"""E-STATS — the adaptive Monte-Carlo statistics layer, measured.

Compares fixed-batch yield estimation (the paper's flat 1000 samples per
sweep point) against the adaptive chunked estimator (draw spawn-seeded
chunks until the Wilson CI half-width reaches a target) on the Fig. 4
size sweep, and the O(batch) monolithic sampler against the O(chunk)
streaming sampler on peak memory.  Writes the measurements to
``benchmarks/BENCH_stats.json``.

The headline numbers this records:

* deep-in-the-tail points (yield ~ 0 at large monoliths, ~ 1 at small
  chiplets) reach the CI target after a chunk or two — a fraction of the
  fixed 1000-sample budget, at equal-or-better reported precision;
* streaming peak memory stays flat in the batch size.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

from scipy.special import ndtri

from repro.core.collisions import collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.core.yield_model import simulate_yield_chunked
from repro.topology.heavy_hex import heavy_hex_by_qubit_count

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from stats_reference import materialize_seeded_batch  # noqa: E402

RESULT_PATH = Path(__file__).parent / "BENCH_stats.json"

SIGMA_GHZ = 0.014
STEP_GHZ = 0.06
SIZES = (10, 20, 40, 100, 200, 500)
FIXED_BATCH = 1000
CI_TARGET = 0.02
CHUNK_SIZE = 250
MAX_SAMPLES = 4000
SEED = 7

MEMORY_BATCH = 20_000
MEMORY_CHUNK = 500
MEMORY_SIZE = 100


def _allocation(size: int):
    from repro.core.frequencies import FrequencySpec

    return HeavyHexThreeFrequencyPlan().allocate(
        heavy_hex_by_qubit_count(size), spec=FrequencySpec(step_ghz=STEP_GHZ)
    )


def _normal_approx_samples(proportion: float, half_width: float) -> int:
    """``p(1-p) z^2 / h^2`` at 95%: the textbook planning size."""
    variance = max(proportion * (1.0 - proportion), 1e-12)
    z = float(ndtri(0.975))
    return max(1, math.ceil(variance * z * z / (half_width * half_width)))


def test_adaptive_reaches_target_with_fewer_samples():
    """Adaptive sampling hits the 0.02 CI target below the fixed budget on
    the tail points, and the JSON artifact records the whole sweep."""
    fabrication = FabricationModel(SIGMA_GHZ)
    points = []
    for size in SIZES:
        allocation = _allocation(size)
        started = time.perf_counter()
        fixed = simulate_yield_chunked(
            allocation, fabrication,
            batch_size=FIXED_BATCH, chunk_size=CHUNK_SIZE, seed=SEED,
        )
        fixed_seconds = time.perf_counter() - started
        started = time.perf_counter()
        adaptive = simulate_yield_chunked(
            allocation, fabrication,
            batch_size=MAX_SAMPLES, chunk_size=CHUNK_SIZE, seed=SEED,
            ci_target=CI_TARGET,
        )
        adaptive_seconds = time.perf_counter() - started
        points.append(
            {
                "num_qubits": size,
                "fixed": {
                    "samples": fixed.samples_used,
                    "estimate": fixed.estimate,
                    "ci_half_width": round(fixed.ci_half_width, 6),
                    "seconds": round(fixed_seconds, 4),
                },
                "adaptive": {
                    "samples": adaptive.samples_used,
                    "estimate": adaptive.estimate,
                    "ci_half_width": round(adaptive.ci_half_width, 6),
                    "reached_target": adaptive.ci_half_width <= CI_TARGET,
                    "seconds": round(adaptive_seconds, 4),
                },
                "normal_approx_samples_needed": _normal_approx_samples(
                    fixed.estimate, CI_TARGET
                ),
            }
        )

    wins = [
        p
        for p in points
        if p["adaptive"]["reached_target"]
        and p["adaptive"]["samples"] < p["fixed"]["samples"]
    ]
    total_fixed = sum(p["fixed"]["samples"] for p in points)
    total_adaptive = sum(p["adaptive"]["samples"] for p in points)

    memory = _peak_memory_comparison()

    record = {
        "benchmark": "adaptive_vs_fixed_yield_sampling",
        "sigma_ghz": SIGMA_GHZ,
        "step_ghz": STEP_GHZ,
        "ci_target_half_width": CI_TARGET,
        "chunk_size": CHUNK_SIZE,
        "fixed_batch": FIXED_BATCH,
        "max_samples": MAX_SAMPLES,
        "seed": SEED,
        "points": points,
        "points_where_adaptive_beats_fixed_budget": len(wins),
        "total_samples_fixed": total_fixed,
        "total_samples_adaptive": total_adaptive,
        "peak_memory": memory,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\n[stats] adaptive hit the {CI_TARGET} target under the fixed "
        f"{FIXED_BATCH}-sample budget on {len(wins)}/{len(points)} points "
        f"({total_adaptive} vs {total_fixed} total samples)"
    )
    print(
        f"[stats] streaming peak memory {memory['streaming_peak_mb']} MB vs "
        f"monolithic {memory['monolithic_peak_mb']} MB "
        f"({memory['batch_size']} devices x {memory['num_qubits']} qubits)"
    )
    print(f"[stats] wrote {RESULT_PATH}")

    # Acceptance: at least one sweep point reaches the 0.02 half-width
    # with fewer total samples than the fixed 1000-sample batch.
    assert wins, "adaptive sampling never beat the fixed budget at target CI"
    for p in points:
        for mode in ("fixed", "adaptive"):
            estimate = p[mode]["estimate"]
            assert 0.0 <= estimate <= 1.0


def _peak_memory_comparison() -> dict:
    """tracemalloc peaks: materialise-everything vs stream-by-chunk."""
    allocation = _allocation(MEMORY_SIZE)
    fabrication = FabricationModel(SIGMA_GHZ)

    tracemalloc.start()
    batch = materialize_seeded_batch(
        allocation, fabrication,
        batch_size=MEMORY_BATCH, chunk_size=MEMORY_CHUNK, seed=SEED,
    )
    monolithic_count = int(collision_free_mask(allocation, batch).sum())
    _, monolithic_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del batch

    tracemalloc.start()
    streamed = simulate_yield_chunked(
        allocation, fabrication,
        batch_size=MEMORY_BATCH, chunk_size=MEMORY_CHUNK, seed=SEED,
    )
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # the memory benchmark doubles as one more parity check
    assert streamed.num_collision_free == monolithic_count

    return {
        "batch_size": MEMORY_BATCH,
        "chunk_size": MEMORY_CHUNK,
        "num_qubits": MEMORY_SIZE,
        "monolithic_peak_mb": round(monolithic_peak / 1e6, 2),
        "streaming_peak_mb": round(streaming_peak / 1e6, 2),
        "memory_ratio": round(monolithic_peak / max(streaming_peak, 1), 1),
    }
