"""E-SAMP — common-random-number sample bank on the Fig. 4/7 detuning sweep.

Runs the yield-vs-sigma detuning sweep (20 fabrication precisions, one
shared-draw axis) twice sequentially — unbanked (the process bank
swapped for a zero-capacity one, so every draw is sampled afresh), then
banked — and writes ``benchmarks/BENCH_sampling.json``:

* **bit-identity asserted**: the banked sweep must reproduce every
  unbanked yield point exactly (same counts, same CI bounds) — banking
  is an affine re-scaling of the same standard-normal draws, never a
  statistical change;
* **sampling_speedup asserted (>= 3x)**: wall-clock of the ``sample``
  phase bucket (see :mod:`repro.engine.phases`).  With ``share_draws``
  the 20-sigma grid fabricates each device size ONCE and re-scales
  banked draws for the other 19 points, so the sampling pass collapses;
* **end_to_end_speedup reported, not asserted**: sampling is ~40% of
  the sample+mask pipeline, so Amdahl caps the whole-sweep win well
  below the sampling-pass win — the honest number is recorded for the
  trend ledger.

The in-process sequential path has no ambient phase collector, so the
benchmark wraps each sweep in ``collecting()`` itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_batch_size

from repro.core import sample_bank
from repro.core.sample_bank import SampleBank, clear_sample_bank, sample_bank_stats
from repro.core.yield_model import detuning_sweep
from repro.engine import phases

RESULT_PATH = Path(__file__).parent / "BENCH_sampling.json"

#: One detuning step, twenty fabrication precisions, two device sizes:
#: the yield-vs-sigma axis of the detuning study, wide enough that the
#: shared-draw design (one sampling pass + 19 re-scalings per size)
#: dominates the measurement.
SIGMA_GRID = tuple(round(0.004 + 0.007 * i, 6) for i in range(20))
SWEEP_KWARGS = dict(
    steps_ghz=(0.06,),
    sigmas_ghz=SIGMA_GRID,
    sizes=(200, 500),
    seed=7,
    share_draws=True,
)

#: Floor asserted on the sampling-phase speedup (the issue's contract).
SAMPLING_SPEEDUP_FLOOR = 3.0


def _timed_sweep(batch: int):
    """Sequential sweep; returns (curves, sample_seconds, total_seconds)."""
    with phases.collecting() as buckets:
        started = time.perf_counter()
        curves = detuning_sweep(**SWEEP_KWARGS, batch_size=batch)
        total = time.perf_counter() - started
    return curves, buckets.get("sample", 0.0), total


def _flatten(curves) -> list[tuple]:
    """Every yield point as a comparable tuple, in grid order."""
    return [
        (key, p.num_qubits, p.num_collision_free, p.batch_size, p.ci_low, p.ci_high)
        for key in sorted(curves)
        for p in curves[key].points
    ]


def test_sample_bank_detuning_sweep_speedup(monkeypatch):
    """Banked sweep: bit-identical points, >= 3x faster sampling phase."""
    batch = min(bench_batch_size(1000), 2000)

    try:
        with monkeypatch.context() as patch:
            patch.setattr(sample_bank, "_BANK", SampleBank(max_bytes=0))
            _timed_sweep(batch)  # warm-up: allocations, lattice caches, imports
            unbanked, unbanked_sample, unbanked_total = _timed_sweep(batch)

        clear_sample_bank()
        banked, banked_sample, banked_total = _timed_sweep(batch)
        bank = sample_bank_stats()
    finally:
        clear_sample_bank()

    assert _flatten(banked) == _flatten(unbanked), (
        "banked sweep diverged from the unbanked sweep"
    )
    # One miss per device size; every other (sigma, size) cell re-scales.
    assert bank["misses"] == len(SWEEP_KWARGS["sizes"])
    assert bank["hits"] == len(SWEEP_KWARGS["sizes"]) * (len(SIGMA_GRID) - 1)
    assert bank["bypasses"] == 0

    sampling_speedup = unbanked_sample / banked_sample if banked_sample > 0 else None
    end_to_end_speedup = unbanked_total / banked_total if banked_total > 0 else None
    assert sampling_speedup is not None and sampling_speedup >= SAMPLING_SPEEDUP_FLOOR, (
        f"sampling phase speedup {sampling_speedup:.2f}x below the "
        f"{SAMPLING_SPEEDUP_FLOOR}x floor "
        f"(unbanked {unbanked_sample:.4f}s vs banked {banked_sample:.4f}s)"
    )

    record = {
        "benchmark": "sample_bank_detuning_sweep",
        "batch_size": batch,
        "num_sigmas": len(SIGMA_GRID),
        "sizes": list(SWEEP_KWARGS["sizes"]),
        "bit_identical": True,
        "bank": {key: bank[key] for key in ("hits", "misses", "entries", "bytes")},
        "unbanked_sample_seconds": round(unbanked_sample, 4),
        "banked_sample_seconds": round(banked_sample, 4),
        "unbanked_total_seconds": round(unbanked_total, 4),
        "banked_total_seconds": round(banked_total, 4),
        "sampling_speedup": round(sampling_speedup, 3),
        "end_to_end_speedup": round(end_to_end_speedup, 3),
        "sampling_speedup_floor": SAMPLING_SPEEDUP_FLOOR,
        "speedup_regression": sampling_speedup < SAMPLING_SPEEDUP_FLOOR,
        "speedup_context": (
            "sampling_speedup is the `sample` phase bucket (the pass the "
            "bank removes); end_to_end_speedup includes the collision mask "
            "and reduction, which Amdahl leaves untouched"
        ),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"\n[sampling] {len(SIGMA_GRID)} sigmas x {len(SWEEP_KWARGS['sizes'])} "
        f"sizes, batch {batch}"
    )
    print(
        f"[sampling] sample phase: {unbanked_sample:.3f}s -> "
        f"{banked_sample:.3f}s  ({sampling_speedup:.2f}x)"
    )
    print(
        f"[sampling] end to end:   {unbanked_total:.3f}s -> "
        f"{banked_total:.3f}s  ({end_to_end_speedup:.2f}x)"
    )
    print(f"[sampling] bank: {bank['hits']} hits / {bank['misses']} misses")
    print(f"[sampling] wrote {RESULT_PATH}")
