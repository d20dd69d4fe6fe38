"""Batch repair driver and the pipeline-facing :class:`TuningOptions`.

This is the seam between the tuning subsystem and the Monte-Carlo
pipeline.  The yield model fabricates a ``(batch, num_qubits)`` array,
screens it with :func:`repro.core.collisions.collision_free_mask`, and —
when a :class:`TuningOptions` is supplied — hands the batch to
:func:`repair_batch`, which walks only the *collided* devices in batch
order and applies the configured strategy to each.  Devices that were
collision-free as fabricated are never touched, so enabling tuning can
only add yield, never subtract it.

Determinism contract: :func:`repair_batch` consumes randomness from a
single generator in device order.  The yield model's chunked estimators
call it once per spawn-seeded chunk with that chunk's own generator
(after fabrication sampling), so a chunk repairs identically whether it
runs in the calling process or a worker — parallel == sequential stays
bit-identical, and zero-budget tuning reproduces the untuned counts
exactly (no-op strategies consume no randomness at all).
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field

import numpy as np

from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.frequencies import FrequencyAllocation
from repro.engine.phases import phase
from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel
from repro.tuning.strategies import GreedyLocalRepair, RepairStrategy, get_strategy

__all__ = ["TuningOptions", "BatchRepairOutcome", "repair_batch"]


@dataclass(frozen=True)
class TuningOptions:
    """Post-fabrication repair configuration threaded through the pipeline.

    A frozen dataclass of frozen dataclasses, so it pickles to engine
    workers and renders stably under the engine's content-addressed
    cache keys — a tuned sweep point and its untuned twin can never
    share a cache entry.

    Attributes
    ----------
    tuner:
        The tuning tool's capabilities (reach, precision, budget).
    strategy:
        The repair strategy instance; defaults to greedy local repair.
    """

    tuner: TunerModel = field(default_factory=TunerModel)
    strategy: RepairStrategy = field(default_factory=GreedyLocalRepair)

    @classmethod
    def build(
        cls,
        strategy: str = "greedy",
        max_shift_ghz: float | None = None,
        precision_sigma_ghz: float | None = None,
        max_tunes_per_qubit: int | None = None,
    ) -> "TuningOptions":
        """CLI-friendly constructor: strategy by name, tuner knobs by value.

        ``None`` keeps a knob at its :class:`TunerModel` default — note
        this means an unlimited budget cannot be *restored* through this
        constructor (it already is the default).
        """
        overrides = {
            name: value
            for name, value in {
                "max_shift_ghz": max_shift_ghz,
                "precision_sigma_ghz": precision_sigma_ghz,
                "max_tunes_per_qubit": max_tunes_per_qubit,
            }.items()
            if value is not None
        }
        return cls(
            tuner=dataclasses.replace(TunerModel(), **overrides),
            strategy=get_strategy(strategy),
        )


@dataclass
class BatchRepairOutcome:
    """Aggregate result of repairing one fabricated batch.

    Attributes
    ----------
    frequencies:
        The batch with repaired devices' rows replaced (input rows for
        devices that were not touched).
    as_fab_mask, final_mask:
        Collision-free masks before and after repair; ``final_mask`` is
        recomputed with the authoritative batched evaluator, and
        ``final_mask & ~as_fab_mask`` marks the dies repair recovered.
    tuned_qubits, total_tunes:
        Accepted-shift bookkeeping summed over the batch.
    tuned_qubit_indices:
        Per-device identity of the accepted shifts: device index ->
        sorted qubit indices that were shifted (devices repair never
        changed are absent).
    """

    frequencies: np.ndarray
    as_fab_mask: np.ndarray
    final_mask: np.ndarray
    tuned_qubits: int = 0
    total_tunes: int = 0
    tuned_qubit_indices: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_as_fab(self) -> int:
        """Devices collision-free straight out of fabrication."""
        return int(self.as_fab_mask.sum())

    @property
    def num_free(self) -> int:
        """Collision-free devices after repair (as-fab survivors included)."""
        return int(self.final_mask.sum())

    @property
    def num_repaired(self) -> int:
        """Devices that are collision-free *only* thanks to repair."""
        return int((self.final_mask & ~self.as_fab_mask).sum())

    @property
    def repaired_mask(self) -> np.ndarray:
        """Mask of the dies repair recovered."""
        return self.final_mask & ~self.as_fab_mask


def repair_batch(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    tuning: TuningOptions,
    rng: np.random.Generator,
    thresholds: CollisionThresholds | None = None,
) -> BatchRepairOutcome:
    """Apply the configured repair strategy to every collided device.

    Parameters
    ----------
    allocation:
        Frequency plan shared by the batch (defines the collision graph).
    frequencies:
        ``(batch, num_qubits)`` as-fabricated frequencies.  Never
        modified; repaired devices are written into a copy.
    tuning:
        Tuner model + strategy.
    rng:
        Randomness for actuation noise and stochastic strategies,
        consumed in device order (see the module docstring).
    thresholds:
        Collision windows; defaults to the Table I values.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    as_fab_mask = collision_free_mask(allocation, frequencies, thresholds)
    if as_fab_mask.all() or tuning.tuner.is_noop:
        return BatchRepairOutcome(
            frequencies=frequencies,
            as_fab_mask=as_fab_mask,
            final_mask=as_fab_mask.copy(),
        )

    graph = CollisionGraph(allocation, thresholds)
    repaired = frequencies.copy()
    tuned_qubits = 0
    total_tunes = 0
    tuned_indices: dict[int, tuple[int, ...]] = {}
    collided = np.flatnonzero(~as_fab_mask)
    # Device-major screening: one vectorised pass hands every strategy
    # its device's violated-criteria count, replacing the per-die
    # Python-level evaluation each repair() call used to open with.
    # Third-party strategies that predate the keyword still work.
    with phase("repair"):
        initials = graph.batch_total_violations(frequencies[collided])
        takes_initial = "initial_violations" in inspect.signature(
            tuning.strategy.repair
        ).parameters
        for position, index in enumerate(collided):
            if takes_initial:
                outcome = tuning.strategy.repair(
                    graph,
                    frequencies[index],
                    tuning.tuner,
                    rng,
                    initial_violations=int(initials[position]),
                )
            else:
                outcome = tuning.strategy.repair(
                    graph, frequencies[index], tuning.tuner, rng
                )
            if outcome.changed:
                repaired[index] = outcome.frequencies
                tuned_qubits += outcome.tuned_qubits
                total_tunes += outcome.total_tunes
                tuned_indices[int(index)] = outcome.tuned_qubit_indices
    # Only rows a strategy actually changed can differ from the as-fab
    # screening, so the authoritative final recheck runs on that subset
    # (bit-identical to rechecking the full batch, severalfold cheaper
    # when repair touches few dies).
    final_mask = as_fab_mask.copy()
    if tuned_indices:
        changed = np.fromiter(sorted(tuned_indices), dtype=np.int64)
        final_mask[changed] = collision_free_mask(
            allocation, repaired[changed], thresholds
        )
    return BatchRepairOutcome(
        frequencies=repaired,
        as_fab_mask=as_fab_mask,
        final_mask=final_mask,
        tuned_qubits=tuned_qubits,
        total_tunes=total_tunes,
        tuned_qubit_indices=tuned_indices,
    )
