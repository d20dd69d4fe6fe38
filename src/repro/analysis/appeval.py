"""Engine-parallel application evaluation: compile+score as task units.

The Fig. 10 sweep historically compiled every (system, benchmark) pair
serially in the parent process.  This module decomposes that inner loop
into module-level, picklable task units so the whole application stack
rides the execution engine: :func:`compile_and_score` compiles ONE
benchmark onto ONE device with a named routing strategy and returns a
plain-dict score, and the drivers
(:func:`repro.analysis.figures.fig10_apps.run_fig10_applications`,
:func:`repro.analysis.figures.appsweep.run_appsweep`) submit flat
batches of them through :func:`repro.engine.dispatch.run_calls`.

Seeding contract
----------------
Compilation is deterministic; the only randomness is benchmark-circuit
construction (BV strings, QAOA graphs, primacy layers).  Every task
carries its circuit seed as an explicit ``circuit_seed`` parameter:

* ``run_fig10_applications`` passes its single historical seed to every
  task, so the engine-parallel sweep is bit-identical to the seed-state
  serial loop (the ``fig10`` golden pins this);
* the appsweep driver derives per-benchmark seeds with
  ``SeedSequence.spawn`` keyed on each benchmark's position in
  :data:`~repro.circuits.benchmarks.BENCHMARK_NAMES`
  (:func:`benchmark_seeds`) — never on its position in a caller-filtered
  selection — so ``--benchmarks qaoa`` reproduces exactly the qaoa rows
  of the full sweep at the same master seed.

Because seeds are data, ``--jobs N`` is bit-identical to sequential
execution, however the tasks land on workers.  ``circuit_seed=None`` is
still deterministic — every benchmark builder maps a ``None`` seed to
``0`` (see :data:`repro.circuits.benchmarks.BENCHMARKS`) — so caching
these tasks never freezes live randomness.

Cache contract
--------------
Tasks are cached content-addressed: the key hashes the benchmark name,
width, circuit seed, routing/layout strategy names AND the full device
(frequencies, labels, error map) through the engine's ``stable_token``.
Re-running an unchanged sweep is all cache hits; any change to the
device population, the strategies, or any ``repro`` source invalidates
exactly as the engine's code-version token dictates.

Routing-cache contract
----------------------
Noise-aware compilation shares the process-global routing cache in
:mod:`repro.compiler.routing`: the weighted-graph structures (CSR cost
matrix plus lazily-filled per-source Dijkstra predecessor rows) are
memoised on a content digest of the device's coupling map and edge-error
map, so every :func:`compile_and_score` task compiling onto the same
device reuses one ``RoutingWeights`` entry instead of rebuilding it.
Tasks that run in the same process — every task at ``jobs=1``, the
tasks one pool worker picks up otherwise — hit the same cache, so the
dominant per-compile cost collapses to path reconstruction.  The cache changes
*when* shortest paths are computed, never *what* they are (same weights,
same tie-breaks), so cached and cold compiles are bit-identical and the
``fig10``/``appsweep`` goldens pin that.

Ensemble scoring
----------------
A single ``best_device`` per configuration is a noisy estimator of an
architecture's application quality — it samples one order statistic of
the assembled-module population.  :func:`summarise_ensemble` scores a
top-k device ensemble instead and reports the median log-fidelity with
a distribution-free order-statistic spread interval
(:func:`repro.stats.intervals.median_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan
from typing import Sequence

from repro.circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.compiler.transpile import transpile
from repro.device.device import Device
from repro.engine.dispatch import run_calls
from repro.engine.phases import phase
from repro.engine.seeding import spawn_seeds
from repro.simulation.esp import FidelityScore, fidelity_product, fidelity_ratio
from repro.stats.intervals import ConfidenceInterval, median_interval, midpoint_median

__all__ = [
    "EnsembleSummary",
    "benchmark_seeds",
    "compile_and_score",
    "run_compile_jobs",
    "score_from_row",
    "summarise_ensemble",
]

#: Engine task-family name for the compile+score unit.
TASK_NAME = "appeval.compile"


def compile_and_score(
    benchmark: str,
    width: int,
    circuit_seed: int | None,
    device: Device,
    routing: str = "basic",
    layout_method: str = "auto",
) -> dict:
    """Compile one benchmark onto one device and score it (engine task unit).

    Returns a plain dict (picklable, JSON-able) rather than result
    objects so the engine's cache stores exactly the numbers the
    drivers consume.
    """
    with phase("circuit"):
        circuit = build_benchmark(benchmark, width, seed=circuit_seed)
    transpiled = transpile(
        circuit, device, layout_method=layout_method, routing=routing
    )
    score = fidelity_product(transpiled.circuit.edge_array(), device)
    return {
        "benchmark": benchmark,
        "width": width,
        "routing": routing,
        "device": device.name,
        "log10_fidelity": score.log10_fidelity,
        "num_two_qubit_gates": score.num_two_qubit_gates,
        "num_swaps": transpiled.num_swaps,
    }


def run_compile_jobs(kwargs_list: Sequence[dict], engine=None) -> list[dict]:
    """Execute a batch of :func:`compile_and_score` tasks, order-preserving.

    ``engine=None`` runs in-process (the golden-regression path); an
    :class:`~repro.engine.runner.ExecutionEngine` fans the batch out over
    worker processes with content-addressed caching.
    """
    return run_calls(compile_and_score, list(kwargs_list), engine, name=TASK_NAME)


def score_from_row(row: dict) -> FidelityScore:
    """Rehydrate the :class:`FidelityScore` a task row carries."""
    return FidelityScore(
        log10_fidelity=row["log10_fidelity"],
        num_two_qubit_gates=row["num_two_qubit_gates"],
    )


def benchmark_seeds(seed: int | None) -> dict[str, int | None]:
    """One child circuit seed per benchmark, keyed by canonical position.

    Seeds derive from each benchmark's position in
    :data:`BENCHMARK_NAMES` — never from its position in a filtered
    selection — so restricting a sweep to a benchmark subset reproduces
    exactly the rows of the full run at the same master seed.
    """
    return dict(zip(BENCHMARK_NAMES, spawn_seeds(seed, len(BENCHMARK_NAMES))))


@dataclass(frozen=True)
class EnsembleSummary:
    """Median-with-spread summary of one configuration's device ensemble.

    Attributes
    ----------
    median_log10_fidelity:
        Median log10 fidelity product over the scored devices (``nan``
        for an empty ensemble, ``-inf`` when the median device hits a
        dead coupling).
    spread:
        Order-statistic interval for that median
        (:func:`repro.stats.intervals.median_interval`); ``None`` for an empty
        ensemble.
    num_devices:
        Ensemble size actually scored.
    median_swaps:
        Median routed SWAP count over the ensemble (``nan`` when empty).
    """

    median_log10_fidelity: float
    spread: ConfidenceInterval | None
    num_devices: int
    median_swaps: float

    def ratio_vs(self, baseline: "EnsembleSummary | None") -> float:
        """Median-fidelity ratio against a baseline summary, in log space.

        Delegates to :func:`repro.simulation.esp.fidelity_ratio`, so the
        inf-on-missing/dead-baseline, zero-on-dead-self and overflow
        conventions stay identical to the per-device ratios printed
        alongside; ``nan`` when this ensemble itself is empty.
        """
        if isnan(self.median_log10_fidelity):
            return float("nan")
        if baseline is None or isnan(baseline.median_log10_fidelity):
            return inf
        return fidelity_ratio(
            FidelityScore(self.median_log10_fidelity, 0),
            FidelityScore(baseline.median_log10_fidelity, 0),
        )


def summarise_ensemble(rows: Sequence[dict]) -> EnsembleSummary:
    """Summarise one configuration's per-device score rows.

    ``rows`` are :func:`compile_and_score` results for the same
    (benchmark, routing) on the devices of one top-k ensemble.
    """
    if not rows:
        return EnsembleSummary(
            median_log10_fidelity=float("nan"),
            spread=None,
            num_devices=0,
            median_swaps=float("nan"),
        )
    fidelities = [row["log10_fidelity"] for row in rows]
    # A dead device contributes -inf: the median still orders correctly,
    # but no finite order-statistic spread exists for a mixed ensemble.
    all_finite = all(value > -inf for value in fidelities)
    return EnsembleSummary(
        median_log10_fidelity=midpoint_median(fidelities),
        spread=median_interval(fidelities) if all_finite else None,
        num_devices=len(rows),
        median_swaps=midpoint_median(row["num_swaps"] for row in rows),
    )
