"""E-OBS — observability overhead on a fixed Fig. 4 yield sweep.

The tracing/metrics layer's contract is "off ⇒ free": with no tracer
installed, every ``span()``/``phase()`` entry collapses to one
thread-local attribute probe.  This benchmark pins that down from two
directions and writes ``benchmarks/BENCH_obs.json``:

* **Macro**: the same seeded sweep timed untraced and traced.  The
  untraced run IS the production hot path (instrumentation compiled in,
  tracing off); the traced run records every engine/task/phase span.
  The traced/untraced ratio is *reported*, not asserted — collecting
  hundreds of spans is allowed to cost something.
* **Micro**: the per-call cost of the off-path primitives
  (``is_tracing`` probe, a full no-op ``span()`` entry/exit), scaled by
  the number of instrumentation points the sweep actually crosses
  (counted from the traced run's span list).  That product bounds what
  the off path adds to the sweep, and **is** asserted: < 3% of the
  untraced wall-clock.

Bit-identity between the traced and untraced runs is asserted
unconditionally — observation must never change a result.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_batch_size

from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.engine import ExecutionEngine
from repro.obs import tracing

RESULT_PATH = Path(__file__).parent / "BENCH_obs.json"

#: Reduced Fig. 4 grid (24 engine tasks).
SWEEP_KWARGS = dict(
    steps_ghz=(0.05, 0.06, 0.07),
    sigmas_ghz=(0.014, 0.1323),
    sizes=(10, 27, 65, 100),
    seed=7,
)

#: Overhead gate for the tracing-OFF hot path.
MAX_OFF_OVERHEAD_FRACTION = 0.03

#: Iterations for the microbenchmark loops.
MICRO_ITERATIONS = 200_000


def _timed_sweep(tracer, batch):
    engine = ExecutionEngine(jobs=1, use_cache=False, tracer=tracer)
    started = time.perf_counter()
    result = run_fig4_yield_sweep(**SWEEP_KWARGS, batch_size=batch, engine=engine)
    return result, time.perf_counter() - started


def _micro_seconds_per_call(fn, iterations=MICRO_ITERATIONS):
    # One warmup pass keeps attribute-cache effects out of the timing.
    for _ in range(1000):
        fn()
    started = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - started) / iterations


def _noop_span():
    with tracing.span("bench.noop"):
        pass


def test_tracing_off_overhead_under_gate():
    """Off-path cost × instrumentation points < 3% of the untraced run."""
    batch = bench_batch_size(1000)

    # Interleave repeats so drift (thermal, page cache) hits both arms.
    untraced_times, traced_times = [], []
    untraced_result = traced_result = None
    traced_span_count = 0
    for _ in range(3):
        untraced_result, seconds = _timed_sweep(None, batch)
        untraced_times.append(seconds)
        tracer = tracing.Tracer()
        traced_result, seconds = _timed_sweep(tracer, batch)
        traced_times.append(seconds)
        traced_span_count = len(tracer)

    assert untraced_result == traced_result, (
        "tracing changed the sweep's numbers"
    )
    assert traced_span_count > 0

    untraced = min(untraced_times)
    traced = min(traced_times)

    probe_s = _micro_seconds_per_call(tracing.is_tracing)
    noop_span_s = _micro_seconds_per_call(_noop_span)
    # Every recorded span corresponds to one crossed instrumentation
    # point; bound the off path with the *costlier* no-op span figure.
    off_bound_s = noop_span_s * traced_span_count
    off_fraction = off_bound_s / untraced

    record = {
        "benchmark": "fig4_observability_overhead",
        "batch_size": batch,
        "num_tasks": len(SWEEP_KWARGS["steps_ghz"])
        * len(SWEEP_KWARGS["sigmas_ghz"])
        * len(SWEEP_KWARGS["sizes"]),
        "untraced_seconds": round(untraced, 4),
        "traced_seconds": round(traced, 4),
        "tracing_on_ratio": round(traced / untraced, 4),
        "traced_span_count": traced_span_count,
        "micro_is_tracing_ns": round(probe_s * 1e9, 1),
        "micro_noop_span_ns": round(noop_span_s * 1e9, 1),
        "off_path_bound_seconds": round(off_bound_s, 6),
        "off_path_bound_fraction": round(off_fraction, 6),
        "off_overhead_gate": MAX_OFF_OVERHEAD_FRACTION,
        "bit_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"\n[obs] untraced {untraced:.3f}s, traced {traced:.3f}s "
        f"({record['tracing_on_ratio']:.2f}x, {traced_span_count} spans)"
    )
    print(
        f"[obs] off path: is_tracing {record['micro_is_tracing_ns']:.0f}ns, "
        f"no-op span {record['micro_noop_span_ns']:.0f}ns -> bound "
        f"{off_fraction * 100:.3f}% of the untraced run "
        f"(gate {MAX_OFF_OVERHEAD_FRACTION * 100:.0f}%)"
    )
    print(f"[obs] wrote {RESULT_PATH}")

    assert off_fraction < MAX_OFF_OVERHEAD_FRACTION, (
        f"tracing-off instrumentation bound {off_fraction * 100:.2f}% "
        f"exceeds the {MAX_OFF_OVERHEAD_FRACTION * 100:.0f}% gate"
    )
