"""The seven fixed-frequency transmon collision criteria (paper Table I).

A *frequency collision* is a qubit-qubit detuning condition that pushes the
Cross-Resonance gate error above roughly 1 %.  The paper adopts the seven
criteria of Hertzberg et al. / Magesan & Gambetta, reproduced below with the
thresholds used in Table I of the paper (all frequencies in GHz, ``a`` is
the control-qubit anharmonicity, negative for transmons):

====  ==========================================  ===========  =====================================
Type  Condition                                    Threshold    Applies to
====  ==========================================  ===========  =====================================
1     ``f_i = f_j``                                +/- 0.017    nearest neighbours ``i``, ``j``
2     ``f_i + a/2 = f_j``                          +/- 0.004    control ``i``, target ``j``
3     ``f_i = f_j + a``                            +/- 0.030    nearest neighbours ``i``, ``j``
4     ``f_j < f_i + a`` or ``f_i < f_j``           (region)     control ``i``, target ``j``
5     ``f_j = f_k``                                +/- 0.017    targets ``j``, ``k`` sharing control ``i``
6     ``f_j = f_k + a`` or ``f_j + a = f_k``       +/- 0.025    targets ``j``, ``k`` sharing control ``i``
7     ``2 f_i + a = f_j + f_k``                    +/- 0.017    control ``i`` with targets ``j``, ``k``
====  ==========================================  ===========  =====================================

Each criterion is written once, as an elementwise function below
(:data:`PAIR_CRITERIA`, :data:`TRIPLE_CRITERIA`).  The staged mask kernel
of :func:`collision_free_mask` (the Monte-Carlo screen), the per-device
report of :func:`find_collisions` and, through :func:`criterion_flags`,
the repair subsystem's ``CollisionGraph`` all call them; the graph's
scalar ``local_violations`` re-check is the one other transcription,
kept for speed (its docstring says why).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.frequencies import FrequencyAllocation
from repro.engine.phases import phase

__all__ = [
    "CollisionThresholds",
    "CollisionReport",
    "check_ideal_plan",
    "count_collisions",
    "find_collisions",
    "has_collision",
    "collision_free_mask",
    "count_collision_free",
    "COLLISION_TYPES",
    "PAIR_CRITERIA",
    "TRIPLE_CRITERIA",
    "criterion_flags",
]

#: Identifiers of the seven collision criteria.
COLLISION_TYPES = (1, 2, 3, 4, 5, 6, 7)

#: Width (directed edges) of the mask kernel's first pair-criteria block;
#: each later block is twice as wide as the one before.
_FIRST_EDGE_BLOCK = 32

#: Below this many live devices the mask kernel screens every remaining
#: edge in one block.
_MIN_BLOCKED_BATCH = 64


@dataclass(frozen=True)
class CollisionThresholds:
    """Numeric windows (GHz) for the seven collision criteria.

    The defaults are the Table I values; they are parameters so future
    fabrication/gate improvements can be modelled by tightening them.
    """

    type1_ghz: float = 0.017
    type2_ghz: float = 0.004
    type3_ghz: float = 0.030
    type5_ghz: float = 0.017
    type6_ghz: float = 0.025
    type7_ghz: float = 0.017


@dataclass
class CollisionReport:
    """Detailed outcome of checking one device for frequency collisions.

    Attributes
    ----------
    collisions:
        List of ``(type, qubits)`` tuples, one per violated condition, where
        ``qubits`` identifies the participating qubits (pair or triple).
    """

    collisions: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def is_collision_free(self) -> bool:
        """True when no criterion is violated."""
        return not self.collisions

    @property
    def num_collisions(self) -> int:
        """Total number of violations."""
        return len(self.collisions)

    def counts_by_type(self) -> dict[int, int]:
        """Map collision type -> number of violations of that type."""
        counts = {ctype: 0 for ctype in COLLISION_TYPES}
        for ctype, _ in self.collisions:
            counts[ctype] += 1
        return counts


def type1_collision(fi, fj, ai, aj, thresholds: CollisionThresholds):
    """Type 1, ``f_i = f_j``: nearest neighbours too close to resonance."""
    return np.abs(fi - fj) < thresholds.type1_ghz


def type2_collision(fi, fj, ai, aj, thresholds: CollisionThresholds):
    """Type 2, ``f_i + a/2 = f_j``: the control's two-photon line on the target."""
    return np.abs(fi + ai / 2.0 - fj) < thresholds.type2_ghz


def type3_collision(fi, fj, ai, aj, thresholds: CollisionThresholds):
    """Type 3, ``f_i = f_j + a``: one qubit on the other's 1-2 transition."""
    return (np.abs(fi - (fj + aj)) < thresholds.type3_ghz) | (
        np.abs(fj - (fi + ai)) < thresholds.type3_ghz
    )


def type4_collision(fi, fj, ai, aj, thresholds: CollisionThresholds):
    """Type 4: the target outside the control's straddling regime."""
    return (fj < fi + ai) | (fi < fj)


def type5_collision(fi, fj, fk, ai, aj, ak, thresholds: CollisionThresholds):
    """Type 5, ``f_j = f_k``: degenerate targets of one control."""
    return np.abs(fj - fk) < thresholds.type5_ghz


def type6_collision(fi, fj, fk, ai, aj, ak, thresholds: CollisionThresholds):
    """Type 6, ``f_j = f_k + a``: a target on its sibling's 1-2 transition."""
    return (np.abs(fj - (fk + ak)) < thresholds.type6_ghz) | (
        np.abs(fk - (fj + aj)) < thresholds.type6_ghz
    )


def type7_collision(fi, fj, fk, ai, aj, ak, thresholds: CollisionThresholds):
    """Type 7, ``2 f_i + a = f_j + f_k``: a control-mediated two-photon line."""
    return np.abs(2.0 * fi + ai - (fj + fk)) < thresholds.type7_ghz


#: Types 1-4 on ``(fi, fj, ai, aj, thresholds)`` of a directed edge.
PAIR_CRITERIA = (type1_collision, type2_collision, type3_collision, type4_collision)

#: Types 5-7 on ``(fi, fj, fk, ai, aj, ak, thresholds)`` of a control triple.
TRIPLE_CRITERIA = (type5_collision, type6_collision, type7_collision)


def criterion_flags(
    frequencies: np.ndarray,
    columns: tuple[np.ndarray, ...],
    alphas: tuple[np.ndarray, ...],
    thresholds: CollisionThresholds,
) -> list[np.ndarray]:
    """One boolean array per type: types 1-4 when ``columns`` is the
    ``(control, target)`` pair of ``m`` directed edges, types 5-7 when it
    is ``(control, target_a, target_b)`` of ``m`` control triples, with
    ``alphas`` the anharmonicities of those qubits, column for column.
    Each array has shape ``(m,)`` for one device, ``(batch, m)`` for a
    ``(batch, num_qubits)`` batch.
    """
    criteria = PAIR_CRITERIA if len(columns) == 2 else TRIPLE_CRITERIA
    if frequencies.ndim == 1:
        operands = [frequencies[column] for column in columns]
    else:
        operands = [frequencies[:, column] for column in columns]
    operands += (*alphas, thresholds)
    return [criterion(*operands) for criterion in criteria]


def find_collisions(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> CollisionReport:
    """List every collision on a single device.

    Violations are listed edge by edge (in ``directed_edges`` order,
    types 1-4 within an edge), then triple by triple (types 5-7).

    Parameters
    ----------
    allocation:
        Frequency plan (provides edge orientation and anharmonicities).
    frequencies:
        Actual (post-fabrication) qubit frequencies, shape ``(num_qubits,)``.
    thresholds:
        Criterion windows; defaults to the paper's Table I values.
    """
    thresholds = thresholds or CollisionThresholds()
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.shape != (allocation.num_qubits,):
        raise ValueError(
            f"expected {allocation.num_qubits} frequencies, got shape {freqs.shape}"
        )
    report = CollisionReport()
    for members, first_type in (
        (allocation.directed_edges, 1),
        (allocation.control_triples, 5),
    ):
        columns = tuple(members.T)
        alphas = tuple(allocation.anharmonicities[column] for column in columns)
        flags = criterion_flags(freqs, columns, alphas, thresholds)
        rows, types = np.nonzero(np.stack(flags, axis=1))
        report.collisions.extend(
            (first_type + ctype, tuple(qubits))
            for ctype, qubits in zip(types.tolist(), members[rows].tolist())
        )
    return report


def has_collision(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> bool:
    """True when the device has at least one frequency collision."""
    return not find_collisions(allocation, frequencies, thresholds).is_collision_free


def count_collisions(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> dict[int, int]:
    """Number of violations per collision type for one device."""
    return find_collisions(allocation, frequencies, thresholds).counts_by_type()


def collision_free_mask(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> np.ndarray:
    """Vectorised collision check across a batch of devices.

    Parameters
    ----------
    allocation:
        Frequency plan shared by every device in the batch.
    frequencies:
        Array of shape ``(batch, num_qubits)`` with the sampled frequencies
        of each fabricated device.
    thresholds:
        Criterion windows; defaults to the paper's Table I values.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(batch,)``; ``True`` marks collision-free
        devices.

    Notes
    -----
    The criteria are evaluated in *stages* over a shrinking device
    subset.  The pair criteria (types 1-4) run over blocks of directed
    edges: the first block holds 32 edges and each later one twice as
    many as the one before, and once fewer than 64 devices are alive the
    remaining edges go in one block (at that size a block costs about
    as much as a whole pass).  Each block gathers its endpoint
    frequencies once, screens the cheap, high-kill types 1 and 4, then
    the narrow windows (types 2 and 3) on that block's survivors, and
    drops the dead devices before the next block.  The shared-control
    criteria (types 5-7) check only the devices that pass every pair
    criterion.  A device is collision-free iff no criterion flags it,
    and every criterion keeps its operands and order, so staging cannot
    change the result — but at the yield phase transition most devices
    die in the first block, and the later blocks and the per-triple
    stage run on a few percent of the batch (see
    ``benchmarks/bench_engine.py``).
    """
    with phase("mask"):
        return _collision_free_mask_impl(allocation, frequencies, thresholds)


def _collision_free_mask_impl(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> np.ndarray:
    thresholds = thresholds or CollisionThresholds()
    freqs = np.atleast_2d(np.asarray(frequencies, dtype=float))
    if freqs.shape[1] != allocation.num_qubits:
        raise ValueError(
            f"expected {allocation.num_qubits} qubits per device, got {freqs.shape[1]}"
        )
    batch = freqs.shape[0]
    alpha = allocation.anharmonicities
    alive = np.arange(batch)  # indices of devices with no violation found yet
    sub = freqs

    # Pair criteria (types 1-4) over edge blocks that double in width,
    # dropping the dead devices after each block and, within a block,
    # after the cheap high-kill types 1 and 4.
    edges = allocation.directed_edges
    start, width = 0, _FIRST_EDGE_BLOCK
    while start < edges.shape[0] and alive.size:
        if alive.size < _MIN_BLOCKED_BATCH:
            stop = edges.shape[0]
        else:
            stop = min(start + width, edges.shape[0])
        control = edges[start:stop, 0]
        target = edges[start:stop, 1]
        ai = alpha[control][np.newaxis, :]
        aj = alpha[target][np.newaxis, :]
        fi = sub[:, control]
        fj = sub[:, target]
        quick = type1_collision(fi, fj, ai, aj, thresholds) | type4_collision(
            fi, fj, ai, aj, thresholds
        )
        keep = ~quick.any(axis=1)
        if not keep.all():
            alive = alive[keep]
            sub = sub[keep]
            fi = fi[keep]
            fj = fj[keep]
        if alive.size:
            rest = type2_collision(fi, fj, ai, aj, thresholds) | type3_collision(
                fi, fj, ai, aj, thresholds
            )
            keep = ~rest.any(axis=1)
            if not keep.all():
                alive = alive[keep]
                sub = sub[keep]
        start, width = stop, 2 * width

    # Shared-control criteria (types 5-7) on the pair survivors.
    triples = allocation.control_triples
    if triples.shape[0] and alive.size:
        control, t_a, t_b = triples[:, 0], triples[:, 1], triples[:, 2]
        ai = alpha[control][np.newaxis, :]
        aj = alpha[t_a][np.newaxis, :]
        ak = alpha[t_b][np.newaxis, :]
        operands = (sub[:, control], sub[:, t_a], sub[:, t_b], ai, aj, ak, thresholds)
        type5, type6, type7 = [criterion(*operands) for criterion in TRIPLE_CRITERIA]
        alive = alive[~(type5 | type6 | type7).any(axis=1)]

    free = np.zeros(batch, dtype=bool)
    free[alive] = True
    return free


def check_ideal_plan(allocation: FrequencyAllocation, design: str) -> None:
    """Raise :class:`ValueError` when the ideal plan of ``design`` collides.

    The one design-time check of chiplets and MCMs.  It runs the staged
    mask kernel on the ideal frequency vector directly, so a design
    check books no ``mask`` phase and is not a screened die; the
    per-collision report is built only to word the error.
    """
    ideal = allocation.ideal_frequencies
    if not _collision_free_mask_impl(allocation, ideal)[0]:
        report = find_collisions(allocation, ideal)
        raise ValueError(
            f"{design} has ideal-frequency collisions: {report.counts_by_type()}"
        )


def count_collision_free(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> int:
    """Number of collision-free devices in a ``(batch, num_qubits)`` array.

    A module-level reduction over :func:`collision_free_mask`, suitable
    as an engine task: it pickles by reference, caches safely, and its
    only large parameter is the frequency array.
    """
    return int(collision_free_mask(allocation, frequencies, thresholds).sum())
