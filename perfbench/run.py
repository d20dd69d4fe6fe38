"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload yield --seed 1 --seconds 30 --trace 0

``--workload`` is ``yield``, ``apps`` or ``service`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` installs the timing shims of ``shims.py`` and
reports the per-layer metrics, writes the spans as a Chrome trace and as
JSON lines under ``.perfbench_out/``, and prints the per-layer self-time
table with its ``unattributed_s`` row.  Metric names and units come
from ``BENCHMARK.json``; every run prints them as a table, then the host
record, then one JSON result line (the last line of standard output).

Outputs are checked against ``perfbench/reference.json`` (results at the
experiments' default seeds, numeric leaves within 1e-9 relative);
``--reference PATH`` checks against another file and
``--record-reference`` rewrites it from the current code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchlib import (
    highest_tail_percentile,
    layer_self_times,
    median_quartiles,
    percentile,
    uncovered_time,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5

SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
from repro.analysis.registry import EXPERIMENTS
{construct}
print(time.time())
"""
CONSTRUCT = {
    "batch": "from repro.engine import ExecutionEngine\n"
    "ExecutionEngine(jobs=1, use_cache=False)",
    "service": "from repro.service.manager import JobManager\n"
    "JobManager(workers={workers}, queue_size={queue}, engine_options={{'jobs': 1}})",
}

#: Where each per-layer metric is measured and what it should move
#: (``end-to-end metric on workload``).
LAYER_NOTES = {
    "core.fabrication": ("FabricationModel.sample_batch", "wall_s on yield"),
    "core.sample_bank": ("sample_bank_stats() after each experiment", "wall_s, peak_rss_mb on yield"),
    "core.collisions": ("collision_free_mask at every binding", "wall_s on yield (minor on apps)"),
    "core.assembly": ("fabricate_chiplet_bin, assemble_mcms", "wall_s on yield (fig8)"),
    "tuning.repair": ("repair_batch", "wall_s on yield"),
    "analysis.study": ("compute_chiplet_bin/mcm_result/monolithic_result, self", "wall_s on yield"),
    "compiler.layout": ("LayoutPass.run, find_long_path", "wall_s on apps (table2)"),
    "compiler.route": ("RoutePass.run", "wall_s on apps (fig10)"),
    "compiler.swap_expand": ("SwapExpandPass.run", "wall_s on apps (fig10)"),
    "compiler.decompose": ("DecomposePass.run", "wall_s on apps (fig10)"),
    "compiler.metrics": ("MetricsPass.run", "wall_s on apps (fig10)"),
    "compiler.routing_cache": ("routing_cache_stats() after each experiment", "wall_s on apps"),
    "simulation.esp": ("fidelity_product", "wall_s on apps"),
    "engine": ("ExecutionEngine.run_tasks, self", "wall_s on all, job_p50_s on service"),
    "engine.cache": ("ResultCache.get/put, cache directory", "job_p50_s, job_p90_s on service"),
    "service": ("job created/started/finished, JobManager.stats()", "job_p90_s, jobs_per_s on service"),
    "bench": ("open-loop send time minus due time", "validity of service"),
    "setup": ("import repro.analysis.registry", "setup_s on all"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("yield", "apps", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def host_record() -> dict:
    """Cores, versions and a fixed pure-Python loop time, so runs on
    different hosts can be compared."""
    import numpy

    def loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        return time.perf_counter() - start

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": statistics.median(loop() for _ in range(3)),
    }


def measure_setup(kind: str, scratch: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to the registry imported
    and the engine or manager constructed, once per sample."""
    from workloads import SERVICE_QUEUE, SERVICE_WORKERS

    construct = CONSTRUCT[kind].format(workers=SERVICE_WORKERS, queue=SERVICE_QUEUE)
    code = SETUP_CODE.format(src=str(SRC), construct=construct)
    env = {**os.environ, "REPRO_CACHE_DIR": str(scratch / "setup-cache")}
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def sample_line(label: str, values: list[float], unit: str) -> str:
    """One row of the run's sample table: count, quartiles and the
    highest percentile with ten samples beyond it."""
    q1, q2, q3 = median_quartiles(values)
    line = f"  {label:14s} n={len(values):<4d} q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f} {unit}"
    tail = highest_tail_percentile(len(values))
    if tail is not None and tail > 50:
        line += f"  p{tail:g} {percentile(values, tail):.4f} {unit}"
    return line


def layer_metrics(outcome, import_s: float) -> dict[str, float]:
    """The per-layer metrics of a traced run."""
    recorder = outcome.recorder
    spans = recorder.spans
    counts = recorder.counts
    extra = outcome.extra
    layer_of = {s["id"]: s["attrs"]["layer"] for s in spans}
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for record in spans:
        layer = record["attrs"]["layer"]
        calls[layer] = calls.get(layer, 0) + 1
        if layer_of.get(record["parent"]) != layer:  # outermost span of its layer
            busy[layer] = busy.get(layer, 0.0) + record["dur"]
    own = layer_self_times(spans)
    capacity = sum(end - start for start, end in outcome.windows) * outcome.threads
    unattributed = sum(
        uncovered_time(spans, start, end, outcome.threads)
        for start, end in outcome.windows
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def tail(values, p) -> float:
        return percentile(values, p) if values else 0.0

    metrics = {
        "core.fabrication.calls": calls.get("core.fabrication", 0),
        "core.fabrication.busy_s": busy.get("core.fabrication", 0.0),
        "core.sample_bank.hit_ratio": ratio(
            extra.get("sample_bank.hits", 0),
            extra.get("sample_bank.hits", 0) + extra.get("sample_bank.misses", 0),
        ),
        "core.collisions.calls": calls.get("core.collisions", 0),
        "core.collisions.busy_s": busy.get("core.collisions", 0.0),
        "core.collisions.dies": counts["core.collisions.dies"],
        "core.assembly.calls": calls.get("core.assembly", 0),
        "core.assembly.busy_s": busy.get("core.assembly", 0.0),
        "tuning.repair.calls": calls.get("tuning.repair", 0),
        "tuning.repair.busy_s": busy.get("tuning.repair", 0.0),
        "tuning.repair.dies": counts["tuning.repair.dies"],
        "tuning.repair.success_ratio": ratio(
            counts["tuning.repair.repaired"], counts["tuning.repair.dies"]
        ),
        "analysis.study.self_s": own.get("analysis.study", 0.0),
        "compiler.layout.busy_s": busy.get("compiler.layout", 0.0),
        "compiler.layout.search_calls": counts["compiler.layout.search_calls"],
        "compiler.layout.search_fail_ratio": ratio(
            counts["compiler.layout.search_fails"],
            counts["compiler.layout.search_calls"],
        ),
        "compiler.route.busy_s": busy.get("compiler.route", 0.0),
        "compiler.swap_expand.busy_s": busy.get("compiler.swap_expand", 0.0),
        "compiler.decompose.busy_s": busy.get("compiler.decompose", 0.0),
        "compiler.metrics.busy_s": busy.get("compiler.metrics", 0.0),
        "compiler.gates_out": counts["compiler.gates_out"],
        "compiler.routing_cache.hit_ratio": ratio(
            extra.get("routing_cache.hits", 0),
            extra.get("routing_cache.hits", 0) + extra.get("routing_cache.misses", 0),
        ),
        "simulation.esp.calls": calls.get("simulation.esp", 0),
        "simulation.esp.busy_s": busy.get("simulation.esp", 0.0),
        "engine.tasks": counts["engine.tasks"],
        "engine.self_s": own.get("engine", 0.0),
        "engine.cache.get_s": busy.get("engine.cache.get", 0.0),
        "engine.cache.put_s": busy.get("engine.cache.put", 0.0),
        "engine.cache.hit_ratio": ratio(
            counts["engine.cache.hits"], counts["engine.cache.lookups"]
        ),
        "engine.cache.bytes_written": extra.get("cache_bytes", 0),
        "service.queue_wait_p90_s": tail(extra.get("queue_waits", ()), 90),
        "service.run_p50_s": tail(extra.get("runs", ()), 50),
        "service.coalesced_ratio": ratio(
            extra.get("coalesced", 0), extra.get("submissions", 0)
        ),
        "service.retries": extra.get("retries", 0),
        "bench.gen_late_p90_s": tail(extra.get("lateness", ()), 90),
        "setup.import_s": import_s,
        "unattributed_s": unattributed,
        "obs.trace_overhead_frac": ratio(
            outcome.traced_s - outcome.untraced_pair_s, outcome.untraced_pair_s
        ),
    }
    table = sorted(own.items(), key=lambda item: -item[1])
    print(f"per-layer self time ({outcome.threads} thread(s) x {capacity / outcome.threads:.3f} s traced):")
    for layer, seconds in table:
        print(f"  {layer:24s} {calls.get(layer, 0):8d} calls {seconds:10.4f} s self {busy.get(layer, 0.0):10.4f} s busy")
    print(f"  {'unattributed_s':24s} {'':14s} {unattributed:10.4f} s")
    accounted = sum(own.values()) + unattributed
    consistent = capacity > 0 and abs(accounted - capacity) <= 0.01 * capacity
    print(
        f"  sum of self time + unattributed = {accounted:.4f} s of {capacity:.4f} s"
        f" traced ({'within' if consistent else 'OUTSIDE'} 1%)"
    )
    if not consistent:
        outcome.fail("traced self time does not account for the traced wall")
    print("measured at / should move:")
    for layer, (where, moves) in LAYER_NOTES.items():
        print(f"  {layer:24s} {where}  ->  {moves}")
    return metrics


def export_trace(spans: list[dict], name: str) -> None:
    from repro.obs.export import write_chrome_trace, write_jsonl

    OUT.mkdir(exist_ok=True)
    write_chrome_trace(spans, str(OUT / f"{name}.trace.json"))
    write_jsonl(spans, str(OUT / f"{name}.spans.jsonl"))
    print(f"trace: {OUT / name}.trace.json, {OUT / name}.spans.jsonl ({len(spans)} spans)")


def record_reference(path: Path) -> None:
    """Run every reference input once and store its results."""
    from repro.analysis.registry import EXPERIMENTS
    from repro.analysis.reporting import jsonable
    from repro.engine import ExecutionEngine
    from workloads import BATCH_WORKLOADS, SERVICE_JOBS, reset_process_caches

    engine = ExecutionEngine(jobs=1, use_cache=False)
    groups = {**BATCH_WORKLOADS, "service": tuple(SERVICE_JOBS.items())}
    reference = {}
    for workload, experiments in groups.items():
        reference[workload] = {}
        for name, params in experiments:
            reset_process_caches()
            result, _ = EXPERIMENTS.get(name).runner(engine, **params)
            reference[workload][name] = jsonable(result)
    path.write_text(json.dumps(reference, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import repro.analysis.registry  # noqa: F401 - timed cold import
    import_s = time.perf_counter() - import_start
    if args.record_reference:
        record_reference(args.reference)
        return 0

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(args.reference.read_text())[args.workload]
    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    try:
        host = host_record()
        kind = "service" if args.workload == "service" else "batch"
        setup = measure_setup(kind, scratch)
        trace = bool(args.trace)
        if kind == "service":
            outcome = workloads.run_service(args.seed, trace, reference, scratch)
        else:
            outcome = workloads.run_batch(
                args.workload, args.seed, args.seconds, trace, reference
            )
        if trace:
            values = layer_metrics(outcome, import_s)
            export_trace(outcome.recorder.spans, f"{args.workload}-seed{args.seed}")
            wanted = spec["per_layer"]
        else:
            values = {**outcome.e2e(), "setup_s": statistics.median(setup)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if not trace:
        print(sample_line("setup", setup, "s"))
        print(sample_line("wall", outcome.walls, "s"))
        print(sample_line("job latency", [x for g in outcome.latencies for x in g], "s"))
        print(f"  job latency quantiles: median over {len(outcome.latencies)} group(s)")
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:34s} {value:14.6f} {entry['unit']}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"  {'failed_frac':34s} {failed_frac:14.6f} 1  ({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print("host: " + json.dumps(host, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
