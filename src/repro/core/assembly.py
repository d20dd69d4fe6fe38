"""Known-good-die binning and MCM assembly (paper Sections V-D, VII-B).

The assembly pipeline is:

1. *Fabricate* a batch of chiplets (Monte-Carlo frequency sampling), keep
   only the collision-free ones, and characterise each survivor's two-qubit
   gate errors from the empirical detuning-binned model — this is the
   known-good-die (KGD) step.  When a :class:`repro.tuning.repair.TuningOptions`
   is supplied, collided dies pass through the post-fabrication repair
   stage first, and the dies the tuner recovers join the bin flagged as
   ``repaired`` (counted separately all the way to
   :class:`repro.core.output_model.FabricationOutput`).
2. *Sort* the collision-free bin by average error so the best chiplets are
   consumed first ("speed binning").
3. *Stitch* chiplets into MCMs greedily: take the next ``k*m`` chiplets,
   test the assembled module for frequency collisions across the
   inter-chip links, and reshuffle the placement (up to 100 permutations,
   the paper's time-out) when a collision is found.  If no collision-free
   placement exists the leading chiplet is set aside and assembly continues
   with the next subset.  The in-order placements of every remaining
   ``k*m`` block are screened in one batch (the in-order check draws no
   randomness, so the verdicts stay valid until a set-aside shifts the
   blocks), and a module's error row is its chiplets' rows in placement
   order followed by one vector draw of link errors.
4. *Account for assembly losses*: every linked qubit requires 25 C4 bump
   bonds, each succeeding with probability ``s_l`` (silicon interposer
   defect rates), so the post-assembly yield is the chiplet utilisation
   scaled by ``(s_l ** 25) ** L``.

Chiplets and modules carry their two-qubit errors as one float row each,
aligned to :meth:`ChipletDesign.edges` and :meth:`MCMDesign.edges`; the
``edge_errors`` dicts are views built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.chiplet import ChipletDesign
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.mcm import MCMDesign
from repro.device.device import Device
from repro.device.noise import EmpiricalCXModel, LinkErrorModel
from repro.engine.phases import phase
from repro.tuning.repair import TuningOptions, repair_batch

__all__ = [
    "FabricatedChiplet",
    "ChipletBin",
    "AssembledMCM",
    "AssemblyResult",
    "fabricate_chiplet_bin",
    "assemble_mcms",
    "rank_devices",
    "post_assembly_yield",
    "bump_bond_success_probability",
    "C4_BUMP_SUCCESS_PROBABILITY",
    "BUMPS_PER_LINK_QUBIT",
    "DEFAULT_MAX_RESHUFFLES",
]

#: Success probability of a single C4 bump bond on a passive interposer.
C4_BUMP_SUCCESS_PROBABILITY = 0.99999960642

#: Number of bump bonds required per inter-chip linked qubit.
BUMPS_PER_LINK_QUBIT = 25

#: Placement-reshuffle time-out used during MCM stitching.
DEFAULT_MAX_RESHUFFLES = 100


@dataclass
class FabricatedChiplet:
    """One collision-free chiplet out of a fabrication batch.

    Attributes
    ----------
    frequencies_ghz:
        Actual qubit frequencies of this die.
    errors:
        KGD-characterised two-qubit infidelity per on-chip coupling,
        aligned to ``edges``.
    edges:
        The design's couplings (local qubit indices), shared by every die
        of a bin.
    repaired:
        True when the die is collision-free only because the
        post-fabrication tuner repaired it (``compare=False`` so the
        flag stays out of golden summaries and cache identities).
    tuned_qubits:
        Local indices of the qubits the tuner shifted on this die
        (empty for as-fabricated survivors).
    """

    frequencies_ghz: np.ndarray
    errors: np.ndarray
    edges: list[tuple[int, int]] = field(compare=False, repr=False)
    repaired: bool = field(default=False, compare=False)
    tuned_qubits: tuple[int, ...] = field(default=(), compare=False)

    @property
    def edge_errors(self) -> dict[tuple[int, int], float]:
        """``{coupling: infidelity}`` view of ``errors``."""
        return dict(zip(self.edges, self.errors.tolist()))

    @property
    def average_error(self) -> float:
        """Average on-chip two-qubit infidelity (used for binning)."""
        return float(self.errors.mean())


@dataclass
class ChipletBin:
    """The sorted, collision-free chiplet bin produced by KGD testing.

    Attributes
    ----------
    design:
        The chiplet design every die implements.
    chiplets:
        Collision-free dies sorted by ascending average error.
    batch_size:
        Size of the original fabrication batch.
    num_repaired:
        Dies in the bin that exist only thanks to post-fabrication
        repair (0 for untuned bins; ``compare=False`` keeps it out of
        golden summaries and cache identities).
    """

    design: ChipletDesign
    chiplets: list[FabricatedChiplet]
    batch_size: int
    num_repaired: int = field(default=0, compare=False)
    _rows: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # The stacked rows repeat the chiplets' own arrays: pickles (pool
        # transfers, the result cache) carry the chiplets alone.
        return {**self.__dict__, "_rows": None}

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies ``(dies, qubits)`` and errors ``(dies, edges)`` of a
        non-empty bin.

        Stacked once per bin, in bin order, and shared by every design
        assembled from it; :func:`fabricate_chiplet_bin` hands over the
        sorted arrays it built the chiplets from.
        """
        if self._rows is None:
            self._rows = (
                np.stack([c.frequencies_ghz for c in self.chiplets]),
                np.stack([c.errors for c in self.chiplets]),
            )
        return self._rows

    @property
    def num_collision_free(self) -> int:
        """Number of dies that survived collision screening."""
        return len(self.chiplets)

    @property
    def collision_free_yield(self) -> float:
        """Fraction of the batch that is collision-free (repaired included)."""
        return self.num_collision_free / self.batch_size

    @property
    def as_fab_yield(self) -> float:
        """Fraction of the batch collision-free without any repair."""
        return (self.num_collision_free - self.num_repaired) / self.batch_size


@dataclass
class AssembledMCM:
    """A complete, collision-free multi-chip module.

    Attributes
    ----------
    design:
        The MCM design (grid + links) the module implements.
    frequencies_ghz:
        Assembled per-qubit frequencies (global MCM indices).
    errors:
        Two-qubit infidelity for every coupling, links included, aligned
        to ``design.edges()``.
    num_repaired_chiplets:
        How many of the module's chiplets were post-fabrication repairs
        (0 for untuned pipelines; ``compare=False``, see
        :class:`FabricatedChiplet`).
    tuned_qubits:
        Global MCM indices of the qubits the tuner shifted across the
        module's chiplets (exported into ``Device`` metadata, where
        ``Device.qubit(i).tuned`` picks it up).
    """

    design: MCMDesign
    frequencies_ghz: np.ndarray
    errors: np.ndarray
    num_repaired_chiplets: int = field(default=0, compare=False)
    tuned_qubits: tuple[int, ...] = field(default=(), compare=False)

    @property
    def edge_errors(self) -> dict[tuple[int, int], float]:
        """``{coupling: infidelity}`` view of ``errors``, links included."""
        return dict(zip(self.design.edges(), self.errors.tolist()))

    @property
    def average_error(self) -> float:
        """Average two-qubit infidelity over all couplings (``E_avg``)."""
        return float(self.errors.mean())

    def to_device(self, name: str | None = None) -> Device:
        """Convert the assembled module into a :class:`Device`."""
        return Device(
            name=name or self.design.name,
            coupling=self.design.coupling_map(),
            frequencies_ghz=self.frequencies_ghz,
            labels=self.design.allocation.labels.copy(),
            edge_errors=self.edge_errors,
            metadata={
                "chiplet_size": self.design.chiplet.num_qubits,
                "grid": (self.design.grid_rows, self.design.grid_cols),
                "num_links": self.design.num_links,
                "repaired_chiplets": self.num_repaired_chiplets,
                "tuned_qubits": self.tuned_qubits,
            },
        )


def rank_devices(
    mcms: "list[AssembledMCM]", count: int, name_prefix: str
) -> list[Device]:
    """Device views of the ``count`` lowest-average-error modules.

    The application-evaluation layer scores this top-k ensemble instead
    of a single best device: one device per configuration is a noisy
    (single order statistic) estimator of architecture quality.  Shared
    by :meth:`repro.analysis.study.MCMResult.top_devices` and the
    appsweep device-build task so the ranking rule lives in one place.
    """
    ranked = sorted(mcms, key=lambda m: m.average_error)[:count]
    return [
        mcm.to_device(name=f"{name_prefix}-rank{rank}")
        for rank, mcm in enumerate(ranked)
    ]


@dataclass
class AssemblyResult:
    """Outcome of assembling one MCM configuration from a chiplet bin."""

    design: MCMDesign
    mcms: list[AssembledMCM] = field(default_factory=list)
    chiplets_used: int = 0
    chiplets_set_aside: int = 0
    reshuffles: int = 0
    repaired_chiplets_used: int = field(default=0, compare=False)

    @property
    def num_mcms(self) -> int:
        """Number of complete, collision-free MCMs assembled."""
        return len(self.mcms)


def fabricate_chiplet_bin(
    design: ChipletDesign,
    fabrication: FabricationModel,
    cx_model: EmpiricalCXModel,
    batch_size: int,
    rng: np.random.Generator,
    thresholds: CollisionThresholds | None = None,
    tuning: TuningOptions | None = None,
) -> ChipletBin:
    """Fabricate, screen, (optionally) repair and KGD-characterise a batch.

    With ``tuning`` set, dies that fail collision screening are handed to
    the post-fabrication repair stage; recovered dies join the bin after
    the as-fabricated survivors, flagged ``repaired``, before the whole
    bin is speed-sorted by average error.  Repair (and the repaired
    dies' error characterisation) draws from a *spawned child* of
    ``rng``, never from the main stream — so the as-fabricated
    survivors' frequencies AND error draws are bit-identical between a
    tuned bin and its untuned twin at the same seed, and the repair axis
    of a comparison isolates the repair effect instead of resampling
    every coupling.  The untuned path consumes exactly the historical
    random stream.  (Child spawning needs a seed-sequence-backed
    generator — anything from ``np.random.default_rng``.)
    """
    frequencies = fabrication.sample_batch(design.allocation, batch_size, rng)
    mask = collision_free_mask(design.allocation, frequencies, thresholds)
    num_repaired = 0
    repaired_rows = frequencies[:0]
    repaired_tuned: list[tuple[int, ...]] = []
    repair_rng: np.random.Generator | None = None
    if tuning is not None and not mask.all():
        repair_rng = rng.spawn(1)[0]
        outcome = repair_batch(
            design.allocation, frequencies, tuning, repair_rng, thresholds
        )
        num_repaired = outcome.num_repaired
        repaired_rows = outcome.frequencies[outcome.repaired_mask]
        repaired_tuned = [
            outcome.tuned_qubit_indices.get(int(index), ())
            for index in np.flatnonzero(outcome.repaired_mask)
        ]

    edges = design.edges()
    edge_u = np.asarray([u for u, _ in edges])
    edge_v = np.asarray([v for _, v in edges])

    def _characterise(rows: np.ndarray, sample_rng: np.random.Generator) -> np.ndarray:
        # Vectorised detunings for every surviving die and coupling; the
        # whole bin is characterised from one contiguous (dies, edges)
        # array.
        detunings = np.abs(rows[:, edge_u] - rows[:, edge_v])
        with phase("characterise"):
            return cx_model.sample_many(detunings, sample_rng)

    # Characterise both survivor groups device-major, then build the bin
    # already speed-sorted: per-die averages come from one bulk
    # mean(axis=1) over the contiguous error array, and the stable
    # argsort reproduces exactly what sorting chiplet objects by their
    # per-die average used to produce (same float64 values, same tie
    # order: as-fabricated dies before repaired ones).
    as_fab = frequencies[mask]
    parts: list[np.ndarray] = []
    part_errors: list[np.ndarray] = []
    if as_fab.shape[0]:
        parts.append(as_fab)
        part_errors.append(_characterise(as_fab, rng))
    if repaired_rows.shape[0]:
        parts.append(repaired_rows)
        part_errors.append(_characterise(repaired_rows, repair_rng))

    chiplets: list[FabricatedChiplet] = []
    rows = None
    if parts:
        num_as_fab = as_fab.shape[0]
        all_rows = np.concatenate(parts, axis=0)
        all_errors = np.concatenate(part_errors, axis=0)
        order = np.argsort(all_errors.mean(axis=1), kind="stable")
        sorted_rows = all_rows[order]
        sorted_errors = all_errors[order]
        rows = (sorted_rows, sorted_errors)
        for rank, position in enumerate(order.tolist()):
            is_repaired = position >= num_as_fab
            chiplets.append(
                FabricatedChiplet(
                    frequencies_ghz=sorted_rows[rank],
                    errors=sorted_errors[rank],
                    edges=edges,
                    repaired=is_repaired,
                    tuned_qubits=tuple(repaired_tuned[position - num_as_fab])
                    if is_repaired
                    else (),
                )
            )
    chiplet_bin = ChipletBin(
        design=design,
        chiplets=chiplets,
        batch_size=batch_size,
        num_repaired=num_repaired,
    )
    chiplet_bin._rows = rows
    return chiplet_bin


def _try_placements(
    frequencies: np.ndarray,
    members: np.ndarray,
    members_free: bool,
    design: MCMDesign,
    rng: np.random.Generator,
    max_reshuffles: int,
    thresholds: CollisionThresholds | None,
) -> tuple[np.ndarray | None, int]:
    """Search the reshuffles of a block whose in-order placement collided.

    ``members`` are the block's rows of the bin's ``frequencies`` and
    ``members_free`` tells whether every one of them passes its own
    on-chip criteria.  Returns the first collision-free placement (an
    array of row indices into ``members``, in slot order) and the number
    of reshuffles the search consumed.

    A permutation of whole chiplets leaves every on-chip verdict as it
    is, so when a member fails on-chip no candidate can be free and the
    screen is skipped; otherwise a candidate is free iff it passes the
    design's cross-chip criteria, and only the columns those read are
    gathered.  Every candidate is drawn up front by one ``permuted``
    call over a tiled ``arange``, which draws exactly what
    ``max_reshuffles`` stacked ``rng.permutation`` calls draw, and all
    of them are screened in a *single* :func:`collision_free_mask` call
    instead of up to ``max_reshuffles`` batch-of-1 calls.  To keep the
    caller's random stream bit-identical to the historical
    draw-one-test-one loop (the same generator later samples link
    errors), the generator is rewound and replays exactly as many
    candidates as that loop would have consumed; a skipped screen
    consumes all of them, as that loop's time-out did.
    """
    if max_reshuffles <= 0:
        return None, 0
    candidates = np.tile(np.arange(design.num_chips), (max_reshuffles, 1))
    if not members_free:
        rng.permuted(candidates, axis=1)
        return None, max_reshuffles
    state = rng.bit_generator.state
    permutations = rng.permuted(candidates, axis=1)
    cross = design.cross_chip
    batch = frequencies[members[permutations[:, cross.slots]], cross.qubits]
    hits = np.flatnonzero(collision_free_mask(cross.allocation, batch, thresholds))
    attempts = int(hits[0]) + 1 if hits.size else max_reshuffles
    if attempts < max_reshuffles:
        rng.bit_generator.state = state
        rng.permuted(candidates[:attempts], axis=1)
    return (permutations[hits[0]] if hits.size else None), attempts


def assemble_mcms(
    chiplet_bin: ChipletBin,
    design: MCMDesign,
    link_model: LinkErrorModel,
    rng: np.random.Generator,
    max_reshuffles: int = DEFAULT_MAX_RESHUFFLES,
    max_mcms: int | None = None,
    thresholds: CollisionThresholds | None = None,
) -> AssemblyResult:
    """Greedily stitch the sorted chiplet bin into complete MCMs.

    Parameters
    ----------
    chiplet_bin:
        Sorted, collision-free chiplets (best first).
    design:
        The MCM configuration to assemble.
    link_model:
        Inter-chip link error distribution used to characterise link gates.
    rng:
        Source of randomness for reshuffling and link-error sampling.
    max_reshuffles:
        Placement-permutation time-out per subset (paper: 100).
    max_mcms:
        Optional cap on the number of MCMs to assemble (useful when only
        the best module is needed for application analysis).
    thresholds:
        Collision windows.

    A module is collision-free iff each of its chiplets passes its own
    on-chip criteria and the placement passes the design's cross-chip
    criteria (:class:`repro.core.mcm.CrossChipCriteria`): every other
    criterion of the module is a chiplet criterion on one slot.  So the
    bin's rows are screened once, on the chiplet plan at these
    ``thresholds`` (which may be wider than the bin's own, so a
    known-good die can fail here), and placements only on the cross-chip
    criteria.

    The pool is consumed in ``num_chips``-aligned blocks from the best
    chiplet on, and only a set-aside shifts that alignment.  The in-order
    check draws no randomness, so the in-order placements of every
    remaining block (at most ``max_mcms`` more when capped) are screened
    in one :func:`collision_free_mask` call, and the verdicts are used
    block by block until a set-aside moves the pool's start by one; the
    screen then restarts from there.  Reshuffles and link draws consume
    ``rng`` in the same order as a subset-by-subset loop, so the result
    and the generator's end state are bit-identical to it.
    """
    if design.chiplet.num_qubits != chiplet_bin.design.num_qubits:
        raise ValueError("chiplet bin and MCM design use different chiplet sizes")

    result = AssemblyResult(design=design)
    chiplets = chiplet_bin.chiplets
    num_chips = design.num_chips
    if len(chiplets) < num_chips:
        return result
    qc = design.chiplet.num_qubits
    num_links = len(design.links)

    with phase("assemble"):
        frequencies, errors = chiplet_bin.rows()
        on_chip = collision_free_mask(design.chiplet.allocation, frequencies, thresholds)
        cross = design.cross_chip
        start = 0  # first chiplet still in the pool
        while True:
            blocks = (len(chiplets) - start) // num_chips
            if max_mcms is not None:
                blocks = min(blocks, max_mcms - result.num_mcms)
            if blocks <= 0:
                break
            firsts = start + num_chips * np.arange(blocks)
            members_free = (
                on_chip[start : start + blocks * num_chips]
                .reshape(blocks, num_chips)
                .all(axis=1)
            )
            in_order = members_free & collision_free_mask(
                cross.allocation,
                frequencies[firsts[:, np.newaxis] + cross.slots, cross.qubits],
                thresholds,
            )
            for block in range(blocks):
                first = start + block * num_chips
                members = np.arange(first, first + num_chips)
                if not in_order[block]:
                    placement, attempts = _try_placements(
                        frequencies,
                        members,
                        bool(members_free[block]),
                        design,
                        rng,
                        max_reshuffles,
                        thresholds,
                    )
                    result.reshuffles += attempts
                    if placement is None:
                        # No collision-free arrangement: set the leading
                        # chiplet aside and re-screen from the next one.
                        result.chiplets_set_aside += 1
                        start = first + 1
                        break
                    members = members[placement]

                ordered = [chiplets[i] for i in members.tolist()]
                tuned_qubits = tuple(
                    q + slot * qc
                    for slot, chiplet in enumerate(ordered)
                    for q in chiplet.tuned_qubits
                )
                repaired_chiplets = sum(1 for c in ordered if c.repaired)
                result.mcms.append(
                    AssembledMCM(
                        design=design,
                        frequencies_ghz=frequencies[members].reshape(-1),
                        errors=np.concatenate(
                            (
                                errors[members].reshape(-1),
                                link_model.sample(rng, size=num_links),
                            )
                        ),
                        num_repaired_chiplets=repaired_chiplets,
                        tuned_qubits=tuned_qubits,
                    )
                )
                result.chiplets_used += num_chips
                result.repaired_chiplets_used += repaired_chiplets
            else:  # no set-aside: every screened block became a module
                start += blocks * num_chips
    return result


def bump_bond_success_probability(
    num_link_qubits: int,
    bump_success: float = C4_BUMP_SUCCESS_PROBABILITY,
    bumps_per_link_qubit: int = BUMPS_PER_LINK_QUBIT,
    failure_multiplier: float = 1.0,
) -> float:
    """Probability that every link qubit of an MCM bonds successfully.

    ``failure_multiplier`` scales the per-bump *failure* probability and is
    used for the paper's 100x sensitivity study (Fig. 8 dashed curves).
    """
    if not 0.0 <= bump_success <= 1.0:
        raise ValueError("bump_success must be a probability")
    failure = (1.0 - bump_success) * failure_multiplier
    effective_success = max(0.0, 1.0 - failure)
    per_qubit = effective_success**bumps_per_link_qubit
    return per_qubit**num_link_qubits


def post_assembly_yield(
    result: AssemblyResult,
    batch_size: int,
    bump_success: float = C4_BUMP_SUCCESS_PROBABILITY,
    bumps_per_link_qubit: int = BUMPS_PER_LINK_QUBIT,
    failure_multiplier: float = 1.0,
) -> float:
    """Post-assembly MCM yield (paper Section VII-C1).

    The utilisation term is the fraction of the original fabrication batch
    that ended up inside complete, collision-free MCMs; the bonding term is
    the probability that all ``L`` link qubits of a module bond correctly.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    utilisation = result.chiplets_used / batch_size
    bonding = bump_bond_success_probability(
        result.design.num_link_qubits,
        bump_success=bump_success,
        bumps_per_link_qubit=bumps_per_link_qubit,
        failure_multiplier=failure_multiplier,
    )
    return utilisation * bonding
