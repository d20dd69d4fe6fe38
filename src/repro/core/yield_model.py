"""Monte-Carlo collision-free yield model (paper Section IV-B, Fig. 4).

The simulation virtually fabricates a batch of devices of any registered
topology (heavy-hex by default; see
:data:`repro.core.architecture.ARCHITECTURES`), samples their qubit
frequencies from the fabrication model, evaluates the seven Table I
collision criteria, and reports the fraction of devices with no
collision — the *collision-free yield*.  Every :class:`YieldResult`
carries a 95% Wilson confidence interval alongside the point estimate.

Key entry points
----------------
:func:`simulate_yield`
    Yield for one topology / one (sigma_f, step) parameter point.
:func:`simulate_yield_chunked`
    The same estimate from spawn-seeded chunks in O(chunk) instead of
    O(batch) memory; with ``ci_target`` set, chunks are drawn only until
    the CI half-width reaches it (or a hard sample cap).
:func:`simulate_yield_point`
    One self-contained (sigma, step, size) point: the engine's task.
:func:`yield_vs_qubits`
    Yield curve over a range of device sizes (one curve of Fig. 4).
:func:`detuning_sweep`
    The full Fig. 4 grid: yield vs. qubits for several detuning steps and
    fabrication precisions.

Every estimator reduces one kernel, :func:`_sample_screen_count`:
fabricate a batch, screen it against the Table I windows (repairing
collided devices when asked) and count the survivors.  The monolithic
estimators run it once; the chunked estimator runs it per chunk.

The sweep entry points accept an ``executor`` hook — any object with a
``map_calls(fn, kwargs_list, name=...)`` method, in practice a
:class:`repro.engine.runner.ExecutionEngine` — and submit one task per
(sigma, step, size) point.  Each point derives its own seed from the
master seed by position (``np.random.SeedSequence.spawn``), so parallel
and sequential runs are bit-identical at the same seed.  Within one
point, the chunked estimator derives per-chunk seeds the same way (see
:mod:`repro.stats.streaming`), so a chunked run, adaptive or not,
observes literally the same samples as materialising the whole batch at
once.

Every entry point also accepts a :class:`repro.tuning.repair.TuningOptions`:
when set, collided devices are handed to the post-fabrication repair
subsystem (:mod:`repro.tuning`) before yield is counted, and the result
is a :class:`RepairedYieldResult` that reports the as-fabricated and
repaired populations separately.  Repair randomness continues each
batch's or chunk's own generator after fabrication sampling, so the
tuned pipeline inherits the full parallel==sequential determinism
contract.  Every statistics, topology and tuning option is passed to
each submitted point explicitly and so takes part in its engine cache
key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.architecture import get_architecture
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import FrequencyAllocation

# Shared with the engine: positional child-seed derivation (execution order
# never changes a point's stream) and the executor dispatch.  Note this
# imports the repro.engine package (stdlib + numpy only, no third-party
# deps); core calls nothing beyond these two helpers at runtime.
from repro.engine.dispatch import run_calls as _run_points
from repro.engine.seeding import spawn_seeds as _point_seeds
from repro.stats.adaptive import StatsOptions, adaptive_estimate
from repro.stats.intervals import DEFAULT_CONFIDENCE, binomial_ci
from repro.stats.streaming import DEFAULT_CHUNK_SIZE, chunk_seed
from repro.topology.base import Lattice
from repro.tuning.repair import TuningOptions, repair_batch

__all__ = [
    "YieldResult",
    "RepairedYieldResult",
    "YieldCurve",
    "simulate_yield",
    "simulate_yield_point",
    "simulate_yield_with_devices",
    "simulate_yield_chunked",
    "yield_vs_qubits",
    "detuning_sweep",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_SIZE_GRID",
]

#: Batch size used for the paper's Fig. 4 Monte-Carlo runs.
DEFAULT_BATCH_SIZE = 1000

#: Device sizes (qubits) probed by the yield-vs-size curves.
DEFAULT_SIZE_GRID = (
    5, 10, 16, 20, 27, 40, 50, 65, 80, 100, 127, 160, 200, 250, 300,
    400, 500, 650, 800, 1000,
)


@dataclass(frozen=True)
class YieldResult:
    """Collision-free yield at a single parameter point, with error bars.

    Attributes
    ----------
    num_qubits:
        Device size in qubits.
    sigma_ghz:
        Fabrication precision used for the batch.
    step_ghz:
        Ideal detuning between F0/F1/F2.
    batch_size:
        Number of simulated devices (for adaptive runs: the samples the
        stopping rule actually drew, also exposed as ``samples_used``).
    num_collision_free:
        Devices that passed every Table I criterion.
    ci_low, ci_high:
        Binomial confidence interval on the yield.  Computed from the
        counts on construction when not supplied, so every result —
        whatever path produced it — satisfies
        ``ci_low <= estimate <= ci_high``.
    confidence, ci_method:
        The interval's two-sided level and construction: always 95%
        Wilson, recorded so serialised results name their interval.
    """

    num_qubits: int
    sigma_ghz: float
    step_ghz: float
    batch_size: int
    num_collision_free: int
    ci_low: float | None = None
    ci_high: float | None = None
    confidence: float = field(default=DEFAULT_CONFIDENCE, init=False)
    ci_method: str = field(default="wilson", init=False)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 <= self.num_collision_free <= self.batch_size:
            raise ValueError("num_collision_free must lie in [0, batch_size]")
        if self.ci_low is None or self.ci_high is None:
            interval = binomial_ci(self.num_collision_free, self.batch_size)
            object.__setattr__(self, "ci_low", interval.low)
            object.__setattr__(self, "ci_high", interval.high)

    @property
    def collision_free_yield(self) -> float:
        """Fraction of devices with no frequency collision."""
        return self.num_collision_free / self.batch_size

    @property
    def estimate(self) -> float:
        """The point estimate the interval brackets (alias)."""
        return self.collision_free_yield

    @property
    def samples_used(self) -> int:
        """Monte-Carlo samples behind the estimate (alias of batch_size)."""
        return self.batch_size

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class RepairedYieldResult(YieldResult):
    """A yield point evaluated through the post-fabrication repair stage.

    ``num_collision_free`` (and therefore ``collision_free_yield``)
    counts every good die — as-fabricated survivors *plus* the dies the
    tuner recovered — while the extra fields keep the repaired
    population separately accountable.  Only tuned pipelines produce
    this type, so untuned results (and their goldens) are structurally
    unchanged.

    Attributes
    ----------
    num_repaired:
        Dies that are collision-free only thanks to repair.
    tuned_qubits:
        Qubits that received at least one accepted shift, summed over
        the batch.
    total_tunes:
        Accepted tuning shots summed over the batch.
    """

    num_repaired: int = 0
    tuned_qubits: int = 0
    total_tunes: int = 0

    @property
    def num_as_fab_free(self) -> int:
        """Dies that were collision-free straight out of fabrication."""
        return self.num_collision_free - self.num_repaired

    @property
    def as_fab_yield(self) -> float:
        """Collision-free yield before any repair."""
        return self.num_as_fab_free / self.batch_size

    @property
    def repaired_yield(self) -> float:
        """Collision-free yield after repair (alias of the estimate)."""
        return self.collision_free_yield


@dataclass
class YieldCurve:
    """Collision-free yield as a function of device size.

    ``points`` is append-only and holds each size at most once — that is
    the contract the O(1) size lookups rely on.  The backing index is
    rebuilt when points were appended since the last lookup (and once
    more on a missed lookup); replacing or reordering entries in place is
    unsupported and may serve a stale point.
    """

    sigma_ghz: float
    step_ghz: float
    points: list[YieldResult] = field(default_factory=list)
    _index: dict[int, YieldResult] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _point_index(self, rebuild: bool = False) -> dict[int, YieldResult]:
        if rebuild or len(self._index) != len(self.points):
            self._index.clear()
            self._index.update({p.num_qubits: p for p in self.points})
        return self._index

    @property
    def sizes(self) -> list[int]:
        """Device sizes along the curve."""
        return [p.num_qubits for p in self.points]

    @property
    def yields(self) -> list[float]:
        """Collision-free yields along the curve."""
        return [p.collision_free_yield for p in self.points]

    def at_size(self, num_qubits: int) -> YieldResult:
        """The full :class:`YieldResult` for one size, via an O(1) lookup."""
        try:
            return self._point_index()[num_qubits]
        except KeyError:
            pass
        try:
            return self._point_index(rebuild=True)[num_qubits]
        except KeyError:
            raise KeyError(f"size {num_qubits} not present in the curve") from None

    def yield_at(self, num_qubits: int) -> float:
        """Yield for a specific size (raises if the size was not simulated)."""
        return self.at_size(num_qubits).collision_free_yield


class _Counts(NamedTuple):
    """What one screened batch (or a sum of chunks) contributes to yield."""

    free: int
    trials: int
    repaired: int = 0
    tuned_qubits: int = 0
    total_tunes: int = 0


def _sample_screen_count(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    length: int,
    rng: np.random.Generator,
    thresholds: CollisionThresholds | None,
    tuning: TuningOptions | None,
) -> tuple[_Counts, np.ndarray, np.ndarray]:
    """Fabricate ``length`` devices, screen them and count the survivors.

    The one place the yield model samples, screens and repairs: every
    estimator reduces the counts of this kernel, whether over one
    monolithic batch or over spawn-seeded chunks.  With ``tuning`` set,
    collided devices are repaired continuing ``rng`` after fabrication
    sampling, so the fabricated frequencies are bit-identical to the
    untuned batch and the repair shots are a pure function of the
    generator's seed.

    Returns ``(counts, frequencies, survivors)``: the counts record, the
    batch (repaired rows substituted when tuned) and its boolean
    collision-free mask.
    """
    frequencies = fabrication.sample_batch(allocation, length, rng)
    if tuning is None:
        survivors = collision_free_mask(allocation, frequencies, thresholds)
        return _Counts(int(survivors.sum()), length), frequencies, survivors
    outcome = repair_batch(allocation, frequencies, tuning, rng, thresholds)
    counts = _Counts(
        outcome.num_free,
        length,
        outcome.num_repaired,
        outcome.tuned_qubits,
        outcome.total_tunes,
    )
    return counts, outcome.frequencies, outcome.final_mask


def _yield_result(
    counts: _Counts,
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    tuning: TuningOptions | None,
) -> YieldResult:
    """The result of ``counts``, in repaired form for tuned runs."""
    result = dict(
        num_qubits=allocation.num_qubits,
        sigma_ghz=fabrication.sigma_ghz,
        step_ghz=allocation.spec.step_ghz,
        batch_size=counts.trials,
        num_collision_free=counts.free,
    )
    if tuning is None:
        return YieldResult(**result)
    return RepairedYieldResult(
        **result,
        num_repaired=counts.repaired,
        tuned_qubits=counts.tuned_qubits,
        total_tunes=counts.total_tunes,
    )


def simulate_yield(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: np.random.Generator | None = None,
    thresholds: CollisionThresholds | None = None,
    tuning: TuningOptions | None = None,
) -> YieldResult:
    """Monte-Carlo collision-free yield for one topology.

    Parameters
    ----------
    allocation:
        Frequency plan of the device under test.
    fabrication:
        Gaussian frequency-scatter model.
    batch_size:
        Number of devices to fabricate virtually.
    rng:
        Source of randomness (a fresh default generator when omitted).
    thresholds:
        Collision windows; defaults to the Table I values.
    tuning:
        Optional post-fabrication repair stage; collided devices are
        repaired (continuing ``rng``) before yield is counted, and the
        result is a :class:`RepairedYieldResult`.
    """
    counts, _, _ = _sample_screen_count(
        allocation,
        fabrication,
        batch_size,
        rng or np.random.default_rng(),
        thresholds,
        tuning,
    )
    return _yield_result(counts, allocation, fabrication, tuning)


def simulate_yield_with_devices(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: np.random.Generator | None = None,
    thresholds: CollisionThresholds | None = None,
) -> tuple[YieldResult, np.ndarray]:
    """Like :func:`simulate_yield` but also return the surviving devices.

    Returns
    -------
    tuple
        ``(result, frequencies)`` where ``frequencies`` has shape
        ``(num_collision_free, num_qubits)`` and holds the sampled frequency
        profile of every collision-free device — the raw material for
        known-good-die binning and MCM assembly.
    """
    counts, frequencies, survivors = _sample_screen_count(
        allocation,
        fabrication,
        batch_size,
        rng or np.random.default_rng(),
        thresholds,
        None,
    )
    result = _yield_result(counts, allocation, fabrication, None)
    return result, frequencies[survivors]


# ---------------------------------------------------------------------- #
# Chunked sampling: the spawn-seeded scheme shared by every estimator
# ---------------------------------------------------------------------- #
def simulate_yield_chunked(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int = DEFAULT_BATCH_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int | None = None,
    thresholds: CollisionThresholds | None = None,
    tuning: TuningOptions | None = None,
    ci_target: float | None = None,
) -> YieldResult:
    """Yield estimate from spawn-seeded chunks, in O(chunk_size) memory.

    Fabricate -> screen -> count one chunk at a time: only one
    ``(chunk_size, num_qubits)`` array is alive at once, and the result
    is bit-identical to reducing the whole ``batch_size`` batch
    materialised from the same ``(seed, chunk_size)`` chunks.  With
    ``tuning`` set, each chunk is repaired before it is counted,
    continuing the chunk's own generator.

    With ``ci_target`` set, chunks are drawn only until the running CI
    half-width is at or below it (:func:`repro.stats.adaptive.adaptive_estimate`),
    ``batch_size`` being the hard cap: deep-in-the-tail points (yield
    near 0 or 1) stop after a chunk or two.  Chunk seeds are
    prefix-stable, so the samples such a run observes are exactly the
    first ``samples_used`` rows of the full run.
    """
    chunks: list[_Counts] = []

    def draw_chunk(chunk_index: int, length: int) -> tuple[int, int]:
        rng = np.random.default_rng(chunk_seed(seed, chunk_index))
        counts, _, _ = _sample_screen_count(
            allocation, fabrication, length, rng, thresholds, tuning
        )
        chunks.append(counts)
        return counts.free, counts.trials

    adaptive_estimate(
        draw_chunk, ci_target=ci_target, max_samples=batch_size, chunk_size=chunk_size
    )
    totals = _Counts(*(sum(column) for column in zip(*chunks)))
    return _yield_result(totals, allocation, fabrication, tuning)


def simulate_yield_point(
    sigma_ghz: float,
    step_ghz: float,
    num_qubits: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = None,
    thresholds: CollisionThresholds | None = None,
    lattice: Lattice | None = None,
    chunk_size: int | None = None,
    ci_target: float | None = None,
    max_samples: int | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> YieldResult:
    """One self-contained (sigma, step, size) Monte-Carlo point.

    This is the unit of work the sweep entry points submit to the engine:
    a module-level function of picklable arguments, so it runs identically
    in a worker process and in the calling process.  ``topology`` selects
    the registered architecture (lattice factory + frequency plan);
    heavy-hex when omitted.  The statistics parameters select the
    sampler:

    * ``ci_target`` set — adaptive chunked sampling, capped at
      ``max_samples`` (``batch_size`` when unset);
    * ``chunk_size`` set (no target) — chunked sampling of the full
      ``batch_size`` in O(chunk) memory;
    * neither — one monolithic batch.

    ``tuning`` routes every sampler through the post-fabrication repair
    stage.  All statistics, topology and tuning parameters participate
    in the engine's cache key, so changing any of them invalidates
    previously cached points.
    """
    arch = get_architecture(topology)
    if lattice is None:
        lattice = arch.lattice(num_qubits)
    allocation = arch.allocate(lattice, spec=arch.spec(step_ghz=step_ghz))
    fabrication = FabricationModel(sigma_ghz=sigma_ghz)
    if ci_target is not None or chunk_size is not None:
        if ci_target is not None and max_samples is not None:
            batch_size = max_samples
        return simulate_yield_chunked(
            allocation,
            fabrication,
            batch_size=batch_size,
            chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
            seed=seed,
            thresholds=thresholds,
            tuning=tuning,
            ci_target=ci_target,
        )
    return simulate_yield(
        allocation,
        fabrication,
        batch_size,
        np.random.default_rng(seed),
        thresholds,
        tuning=tuning,
    )


def yield_vs_qubits(
    sigma_ghz: float,
    step_ghz: float,
    sizes: tuple[int, ...] = DEFAULT_SIZE_GRID,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = 7,
    thresholds: CollisionThresholds | None = None,
    lattices: dict[int, Lattice] | None = None,
    executor=None,
    stats: StatsOptions | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> YieldCurve:
    """Collision-free yield curve over a range of device sizes.

    Parameters
    ----------
    sigma_ghz:
        Fabrication precision of the batch.
    step_ghz:
        Ideal detuning between consecutive frequencies.
    sizes:
        Device sizes (qubits) to probe.
    batch_size:
        Devices fabricated per size.
    seed:
        Master seed; each size derives its own child seed by position, so
        results do not depend on execution order (``None`` for
        non-deterministic sampling).
    thresholds:
        Collision windows.
    lattices:
        Optional cache mapping size -> pre-built lattice, to avoid repeating
        the lattice search across parameter points.
    executor:
        Optional engine hook (``map_calls``); ``None`` runs in-process.
    stats:
        Optional :class:`repro.stats.adaptive.StatsOptions` switching every point
        to chunked (optionally adaptive) sampling.
    topology:
        Registered topology name (heavy-hex when omitted).
    tuning:
        Optional post-fabrication repair options applied at every point.
    """
    arch = get_architecture(topology)
    curve = YieldCurve(sigma_ghz=sigma_ghz, step_ghz=step_ghz)
    stats = stats or StatsOptions()
    kwargs_list = []
    for size, child_seed in zip(sizes, _point_seeds(seed, len(sizes))):
        if lattices is not None and size in lattices:
            lattice = lattices[size]
        else:
            lattice = arch.lattice(size)
            if lattices is not None:
                lattices[size] = lattice
        kwargs_list.append(
            dict(
                sigma_ghz=sigma_ghz,
                step_ghz=step_ghz,
                num_qubits=size,
                batch_size=batch_size,
                seed=child_seed,
                thresholds=thresholds,
                lattice=lattice,
                chunk_size=stats.chunk_size,
                ci_target=stats.ci_target,
                max_samples=stats.max_samples,
                topology=topology,
                tuning=tuning,
            )
        )
    curve.points.extend(
        _run_points(simulate_yield_point, kwargs_list, executor, "yield.point")
    )
    return curve


def detuning_sweep(
    steps_ghz: tuple[float, ...] = (0.04, 0.05, 0.06, 0.07),
    sigmas_ghz: tuple[float, ...] = (0.1323, 0.014, 0.006),
    sizes: tuple[int, ...] = DEFAULT_SIZE_GRID,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int | None = 7,
    thresholds: CollisionThresholds | None = None,
    executor=None,
    stats: StatsOptions | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> dict[tuple[float, float], YieldCurve]:
    """The full Fig. 4 grid: one yield curve per (step, sigma) combination.

    The grid is flattened into one task batch — ``len(steps) * len(sigmas)
    * len(sizes)`` independent points — before submission, so a parallel
    engine sees the full width of the sweep at once.  Seeding is two-level:
    the master seed spawns one child seed per (step, sigma) curve, and each
    curve spawns per-size point seeds from its child — positionally, never
    by execution order, so the output is independent of both the executor
    and the flattening.  (A curve of this grid therefore matches a lone
    :func:`yield_vs_qubits` call at the curve's *derived* seed, not at the
    master seed.)

    Returns
    -------
    dict
        Mapping ``(step_ghz, sigma_ghz) -> YieldCurve``.
    """
    arch = get_architecture(topology)
    combos = [(step, sigma) for step in steps_ghz for sigma in sigmas_ghz]
    curve_seeds = _point_seeds(seed, len(combos))
    stats = stats or StatsOptions()

    lattices: dict[int, Lattice] = {}
    for size in sizes:
        lattices[size] = arch.lattice(size)

    kwargs_list = []
    for (step, sigma), curve_seed in zip(combos, curve_seeds):
        for size, child_seed in zip(sizes, _point_seeds(curve_seed, len(sizes))):
            kwargs_list.append(
                dict(
                    sigma_ghz=sigma,
                    step_ghz=step,
                    num_qubits=size,
                    batch_size=batch_size,
                    seed=child_seed,
                    thresholds=thresholds,
                    lattice=lattices[size],
                    chunk_size=stats.chunk_size,
                    ci_target=stats.ci_target,
                    max_samples=stats.max_samples,
                    topology=topology,
                    tuning=tuning,
                )
            )

    points = _run_points(simulate_yield_point, kwargs_list, executor, "yield.point")
    curves: dict[tuple[float, float], YieldCurve] = {}
    for combo_index, (step, sigma) in enumerate(combos):
        curve = YieldCurve(sigma_ghz=sigma, step_ghz=step)
        curve.points.extend(
            points[combo_index * len(sizes) : (combo_index + 1) * len(sizes)]
        )
        curves[(step, sigma)] = curve
    return curves
