"""The benchmark's three workloads and the measurements taken on them.

``yield``
    fig4, tunedyield and fig8 in sequence on a plain single-threaded
    engine (``jobs=1``, no result cache).  The work is in ``core``
    (sampling, collision screening, the sample bank, assembly),
    ``tuning.repair`` and the ``analysis.study`` glue; the compiler does
    none of it.
``apps``
    table2 (sizes 10/20/40) and fig10 restricted to qaoa and adder, same
    engine.  The compiler does most of the work: table2 in the layout
    search that exhausts its budget, fig10 in routing, SWAP expansion and
    the gate metrics.
``service``
    An in-process ``JobManager(workers=2)`` with its result cache in a
    fresh directory, warmed with one job of each kind and then fed by a
    seeded open loop: fresh fig4/fig8 jobs compute and write the cache,
    repeats read it, bursts of duplicates coalesce onto live jobs, and
    sec5c jobs are cheap.  It is the only workload where two jobs
    contend for both cores and the interpreter lock.

Each batch iteration clears the process caches before every experiment
(sample bank, routing cache, architecture memo) and checks that their
counters read zero, so no arm inherits another's warm state.  The first
iteration runs the experiments' default seeds and is compared with the
recorded reference; later iterations run seeds derived from the workload
seed and must reproduce each other.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchlib import compare_trees, open_loop_accounting, percentile
from shims import SpanRecorder

from repro.analysis.registry import EXPERIMENTS
from repro.analysis.reporting import jsonable
from repro.compiler.routing import clear_routing_cache, routing_cache_stats
from repro.core.architecture import clear_architecture_caches
from repro.core.sample_bank import clear_sample_bank, sample_bank_stats
from repro.engine import ExecutionEngine
from repro.service.manager import JobManager, QueueFull

#: Experiments per batch workload with the batches used.  The yield
#: batches are a quarter of the registry defaults (fig4 1000, tunedyield
#: 400, fig8 2000), scaled together so every layer keeps its share and an
#: iteration fits several times into one run; apps runs at the defaults
#: (table2 has no batch, and fig10's batch only sizes its yield study).
BATCH_WORKLOADS: dict[str, tuple[tuple[str, dict[str, Any]], ...]] = {
    "yield": (
        ("fig4", {"batch_size": 250}),
        ("tunedyield", {"batch_size": 100}),
        ("fig8", {"batch_size": 500}),
    ),
    "apps": (
        ("table2", {}),
        ("fig10", {"benchmarks": ("qaoa", "adder")}),
    ),
}

#: One block of arrival events, as (kind, submissions at that instant).
#: ``fresh`` computes a new fig4/fig8 job and writes the result cache,
#: ``repeat`` re-submits a finished fig4 job and reads the cache, and
#: ``cheap`` is a sec5c job.  The extra submissions of a burst are
#: duplicates of the live job and coalesce onto it.  Every block holds
#: the same kinds in the same order, so every seed has the same mix and
#: the heavy jobs are spread evenly instead of clustering at random: the
#: median job is a cache replay and the p90 job a fresh fig4 computation.
SERVICE_BLOCK = (
    (("fresh", 5),) + (("cheap", 1),) * 4 + (("repeat", 10),) + (("cheap", 1),) * 4
)
#: Five blocks of 23 jobs: 115 per session, so the session's p90 has
#: ten samples beyond it.  The reported quantiles are each block's,
#: medianed over the blocks.
SERVICE_BLOCKS = 5
#: Open-loop rate of arrival events (2/s, 4.6 jobs/s): the workers are
#: busy about a quarter of the time, so queueing stays short of the
#: backlog that makes latency quantiles vary from seed to seed.
SERVICE_EVENT_RATE = 2.0
#: Seeds per session for cheap jobs: most cheap jobs replay one of these
#: from the cache, which keeps them cheap even beside a heavy job.
CHEAP_SEEDS = 4
#: Every fourth fresh job is fig8, the rest fig4.
FRESH_FIG8_EVERY = 4
#: A repeat re-submits the latest fresh fig4 job at least this many
#: blocks back (finished by then), else the warm-up fig4 job.
REPEAT_BLOCKS_BACK = 1
SERVICE_WORKERS = 2
SERVICE_QUEUE = 64
#: The small jobs of the service: fresh fig4/fig8 at 1% of their default
#: batch, sec5c at 5%.  Before the open loop starts, the server is warmed
#: with one job of each at the default seeds (a long-running server has
#: paid its cold start), and those results are compared with the
#: reference.
SERVICE_JOBS = {
    "fig4": {"batch_size": 10},
    "fig8": {"batch_size": 10},
    "sec5c": {"batch_size": 50},
}
#: Seconds a session may run past its last arrival before open jobs count
#: as timed out.
SERVICE_DRAIN_S = 60.0


def derived_seed(workload: str, seed: int, key: str) -> int:
    """A stable experiment seed drawn from the workload seed."""
    return random.Random(f"{workload}:{seed}:{key}").randrange(1, 2**31)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_process_caches() -> None:
    """Empty the process-wide caches and check their counters read zero."""
    clear_sample_bank()
    clear_routing_cache()
    clear_architecture_caches()
    bank, routing = sample_bank_stats(), routing_cache_stats()
    for name, stats, keys in (
        ("sample bank", bank, ("hits", "misses", "entries", "bytes")),
        ("routing cache", routing, ("hits", "misses", "entries")),
    ):
        if any(stats[key] for key in keys):
            raise RuntimeError(f"{name} not empty after clearing: {stats}")


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: End-to-end samples (untraced arms only).
    walls: list[float] = field(default_factory=list)
    #: Job latencies, one group per iteration (batch) or block (service).
    latencies: list[list[float]] = field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0
    #: Traced arms: the recorder, their windows and thread count.
    recorder: SpanRecorder | None = None
    windows: list[tuple[float, float]] = field(default_factory=list)
    threads: int = 1
    traced_s: float = 0.0
    untraced_pair_s: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, label: str, actual: Any, expected: Any) -> bool:
        diffs = compare_trees(actual, expected)
        if diffs:
            self.fail(f"{label}: {len(diffs)} mismatch(es), first {diffs[0]}")
        return not diffs

    def book(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + amount

    def e2e(self) -> dict[str, float]:
        """The end-to-end metrics except ``setup_s``.  Job latency
        quantiles are taken per group and the median over groups is
        reported, so one disturbed block does not set the run's value."""
        return {
            "wall_s": statistics.median(self.walls),
            "job_p50_s": statistics.median(percentile(g, 50) for g in self.latencies),
            "job_p90_s": statistics.median(percentile(g, 90) for g in self.latencies),
            "jobs_per_s": self.completed / self.busy_s,
            "peak_rss_mb": peak_rss_mb(),
        }


# ---------------------------------------------------------------------- #
# Batch workloads (yield, apps)
# ---------------------------------------------------------------------- #
def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, reference: dict
) -> Outcome:
    """Iterate the workload's experiment list for about ``seconds``.

    Untraced runs measure every iteration.  Traced runs run each
    iteration twice on the same inputs, untraced and traced, and take the
    tracing overhead from the pairs after the first, whose first arm pays
    the process's one-off warm-up.
    """
    experiments = BATCH_WORKLOADS[workload]
    engine = ExecutionEngine(jobs=1, use_cache=False)
    outcome = Outcome(recorder=SpanRecorder() if trace else None)
    first_seeded: dict[str, Any] = {}
    started = time.perf_counter()
    iteration = 0
    while True:
        iteration_start = time.perf_counter()
        # Traced runs alternate which arm of a pair goes first.
        arms = ((False, True), (True, False))[iteration % 2] if trace else (False,)
        for traced in arms:
            arm_wall = 0.0
            if not traced:
                outcome.latencies.append([])
            for name, params in experiments:
                seed_value = None if iteration == 0 else derived_seed(workload, seed, name)
                wall, tree = _run_experiment(
                    engine, name, params, seed_value, outcome, traced
                )
                arm_wall += wall
                if tree is None:
                    continue
                label = f"{name} (iteration {iteration}, seed {seed_value})"
                if iteration == 0:
                    outcome.check(label, tree, reference[name])
                elif name in first_seeded:
                    outcome.check(label, tree, first_seeded[name])
                else:
                    first_seeded[name] = tree
            if trace and iteration > 0:
                if traced:
                    outcome.traced_s += arm_wall
                else:
                    outcome.untraced_pair_s += arm_wall
            elif not trace:
                outcome.walls.append(arm_wall)
                outcome.busy_s += arm_wall
        iteration += 1
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - iteration_start
        if iteration >= 2 and elapsed + last > seconds:
            return outcome


def _run_experiment(engine, name, params, seed, outcome: Outcome, traced: bool):
    reset_process_caches()
    recorder = outcome.recorder if traced else None
    if recorder is not None:
        recorder.install()
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        result, _ = EXPERIMENTS.get(name).runner(engine, seed=seed, **params)
    except Exception as exc:  # booked as a failed operation
        end = time.perf_counter()
        outcome.fail(f"{name} seed {seed} raised {type(exc).__name__}: {exc}")
        result = None
    else:
        end = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.uninstall()
    wall = end - start
    if not traced:
        outcome.latencies[-1].append(wall)
        outcome.completed += result is not None
    else:
        outcome.windows.append((start, end))
        bank, routing = sample_bank_stats(), routing_cache_stats()
        outcome.book("sample_bank.hits", bank["hits"])
        outcome.book("sample_bank.misses", bank["misses"])
        outcome.book("routing_cache.hits", routing["hits"])
        outcome.book("routing_cache.misses", routing["misses"])
    return wall, (jsonable(result) if result is not None else None)


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Arrival:
    """One open-loop submission: due ``at`` seconds into the session."""

    at: float
    kind: str  # fresh | repeat | duplicate | cheap
    experiment: str
    params: dict[str, Any]
    #: Index of the arrival whose result this one must equal.
    original: int | None = None


def service_schedule(seed: int) -> list[Arrival]:
    """The seeded arrival list.

    Event times are a Poisson process at :data:`SERVICE_EVENT_RATE`
    conditioned on its count (sorted uniform times), so every seed spans
    the same interval; the seed also draws the fresh and cheap seeds.
    """
    rng = random.Random(f"service:{seed}")
    events = [
        (block, kind, copies)
        for block in range(SERVICE_BLOCKS)
        for kind, copies in SERVICE_BLOCK
    ]
    span = len(events) / SERVICE_EVENT_RATE
    times = sorted(rng.uniform(0.0, span) for _ in events)
    cheap_seeds = [rng.randrange(1, 2**31) for _ in range(CHEAP_SEEDS)]
    arrivals: list[Arrival] = []
    fresh: list[tuple[int, int]] = []  # (block, arrival index)
    for at, (block, kind, copies) in zip(times, events):
        original = None
        if kind == "fresh":
            name = "fig8" if len(fresh) % FRESH_FIG8_EVERY == 3 else "fig4"
            params = {**SERVICE_JOBS[name], "seed": rng.randrange(1, 2**31)}
            fresh.append((block, len(arrivals)))
        elif kind == "repeat":
            done = [
                index
                for fresh_block, index in fresh
                if block - fresh_block >= REPEAT_BLOCKS_BACK
                and arrivals[index].experiment == "fig4"
            ]
            name, params = "fig4", dict(SERVICE_JOBS["fig4"])
            if done:
                original = done[-1]
                params = arrivals[original].params
        else:
            name, params = "sec5c", {**SERVICE_JOBS["sec5c"], "seed": rng.choice(cheap_seeds)}
        first = len(arrivals)
        arrivals.append(Arrival(at, kind, name, params, original))
        arrivals += [Arrival(at, "duplicate", name, params, first)] * (copies - 1)
    return arrivals


def run_service(seed: int, trace: bool, reference: dict, scratch: Path) -> Outcome:
    """One open-loop session (traced runs: an untraced then a traced
    session on the same schedule)."""
    arrivals = service_schedule(seed)
    if not trace:
        return asyncio.run(_session(arrivals, reference, scratch / "cache-0", None))
    untraced = asyncio.run(_session(arrivals, reference, scratch / "cache-0", None))
    outcome = asyncio.run(
        _session(arrivals, reference, scratch / "cache-1", SpanRecorder())
    )
    outcome.attempted += untraced.attempted
    outcome.failed += untraced.failed
    outcome.problems += untraced.problems
    outcome.untraced_pair_s = untraced.extra["job_run_s"]
    outcome.traced_s = outcome.extra["job_run_s"]
    return outcome


async def _session(
    arrivals: list[Arrival], reference: dict, cache_dir: Path, recorder
) -> Outcome:
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    reset_process_caches()
    outcome = Outcome(recorder=recorder, threads=SERVICE_WORKERS)
    manager = JobManager(
        workers=SERVICE_WORKERS,
        queue_size=SERVICE_QUEUE,
        engine_options={"jobs": 1},
    )
    await manager.start()
    loop = asyncio.get_running_loop()
    try:
        warm = [await manager.submit(n, p) for n, p in SERVICE_JOBS.items()]
        await asyncio.wait(
            [asyncio.ensure_future(h.wait()) for h in warm], timeout=SERVICE_DRAIN_S
        )
        for name, handle in zip(SERVICE_JOBS, warm):
            outcome.attempted += 1
            if handle.job.state.value != "succeeded":
                outcome.fail(f"warm-up {name} ended {handle.job.state.value}")
            else:
                outcome.check(
                    f"service {name}", jsonable(handle.job.result), reference[name]
                )
        if recorder is not None:
            recorder.install()
        base_mono, base_wall = loop.time() + 0.05, time.time() + 0.05
        window_start = time.perf_counter() + 0.05
        handles, due, sent = [], [], []
        for arrival in arrivals:
            delay = base_mono + arrival.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent.append(loop.time() - base_mono)
            due.append(arrival.at)
            outcome.attempted += 1
            try:
                handles.append(await manager.submit(arrival.experiment, arrival.params))
            except QueueFull:
                outcome.fail(f"{arrival.experiment} {arrival.params} rejected: queue full")
                handles.append(None)
        live = [asyncio.ensure_future(h.wait()) for h in handles if h is not None]
        if live:
            _, pending = await asyncio.wait(live, timeout=SERVICE_DRAIN_S)
            for task in pending:
                task.cancel()
        end = loop.time() - base_mono
        window_end = time.perf_counter()
        stats = manager.stats()
    finally:
        if recorder is not None:
            recorder.uninstall()
        await manager.stop()

    finished: list[float | None] = []
    trees: list[Any] = []
    for arrival, handle in zip(arrivals, handles):
        job = handle.job if handle is not None else None
        ok = job is not None and job.state.value == "succeeded"
        if job is not None and not ok:
            outcome.fail(f"{arrival.experiment} {arrival.params} ended {job.state.value}")
        finished.append(job.finished - base_wall if ok else None)
        trees.append(jsonable(job.result) if ok else None)
    for index, arrival in enumerate(arrivals):
        tree = trees[index]
        if tree is None:
            continue
        if arrival.kind == "repeat" and arrival.original is None:
            outcome.check("service repeat of warm-up fig4", tree, reference["fig4"])
        elif arrival.original is not None and trees[arrival.original] is not None:
            outcome.check(
                f"service {arrival.kind} of arrival {arrival.original}",
                tree,
                trees[arrival.original],
            )

    latencies, lateness = open_loop_accounting(due, sent, finished, end)
    done_at = [f for f in finished if f is not None]
    session = max(done_at) if done_at else end
    jobs = {h.job.id: h.job for h in handles if h is not None}.values()
    ran = [j for j in jobs if j.started is not None and j.finished is not None]
    outcome.walls.append(session)
    block = sum(copies for _, copies in SERVICE_BLOCK)
    outcome.latencies = [
        latencies[i : i + block] for i in range(0, len(latencies), block)
    ]
    outcome.completed = len(done_at)
    outcome.busy_s = session
    outcome.windows.append((window_start, window_end))
    outcome.extra.update(
        {
            "job_run_s": sum(j.finished - j.started for j in ran),
            "queue_waits": [j.started - j.created for j in ran],
            "runs": [j.finished - j.started for j in ran],
            "coalesced": sum(1 for h in handles if h is not None and h.coalesced),
            "submissions": sum(1 for h in handles if h is not None),
            "retries": stats["retries"],
            "lateness": lateness,
            "cache_bytes": sum(p.stat().st_size for p in cache_dir.glob("*.pkl")),
            "sample_bank.hits": sample_bank_stats()["hits"],
            "sample_bank.misses": sample_bank_stats()["misses"],
            "routing_cache.hits": routing_cache_stats()["hits"],
            "routing_cache.misses": routing_cache_stats()["misses"],
        }
    )
    return outcome
