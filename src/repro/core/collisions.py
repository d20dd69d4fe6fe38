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

The module offers both a scalar API (useful for tests and for explaining a
single violation) and a batched, fully vectorised evaluator used by the
Monte-Carlo yield model, where frequencies have shape ``(batch, num_qubits)``.
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
    counts_by_type:
        Number of violations of each criterion type.
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


def _pairwise_arrays(allocation: FrequencyAllocation):
    edges = allocation.directed_edges
    triples = allocation.control_triples
    return edges, triples


def find_collisions(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> CollisionReport:
    """List every collision on a single device.

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
    alpha = allocation.anharmonicities
    report = CollisionReport()
    edges, triples = _pairwise_arrays(allocation)

    for control, target in edges:
        fi, fj = freqs[control], freqs[target]
        ai = alpha[control]
        aj = alpha[target]
        if abs(fi - fj) < thresholds.type1_ghz:
            report.collisions.append((1, (int(control), int(target))))
        if abs(fi + ai / 2.0 - fj) < thresholds.type2_ghz:
            report.collisions.append((2, (int(control), int(target))))
        if (
            abs(fi - (fj + aj)) < thresholds.type3_ghz
            or abs(fj - (fi + ai)) < thresholds.type3_ghz
        ):
            report.collisions.append((3, (int(control), int(target))))
        if fj < fi + ai or fi < fj:
            report.collisions.append((4, (int(control), int(target))))

    for control, t_a, t_b in triples:
        fj, fk = freqs[t_a], freqs[t_b]
        fi = freqs[control]
        ai = alpha[control]
        aj = alpha[t_a]
        ak = alpha[t_b]
        if abs(fj - fk) < thresholds.type5_ghz:
            report.collisions.append((5, (int(control), int(t_a), int(t_b))))
        if (
            abs(fj - (fk + ak)) < thresholds.type6_ghz
            or abs(fk - (fj + aj)) < thresholds.type6_ghz
        ):
            report.collisions.append((6, (int(control), int(t_a), int(t_b))))
        if abs(2.0 * fi + ai - (fj + fk)) < thresholds.type7_ghz:
            report.collisions.append((7, (int(control), int(t_a), int(t_b))))

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
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim == 1:
        freqs = freqs[np.newaxis, :]
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
        quick = (np.abs(fi - fj) < thresholds.type1_ghz) | (fj < fi + ai) | (fi < fj)
        keep = ~quick.any(axis=1)
        if not keep.all():
            alive = alive[keep]
            sub = sub[keep]
            fi = fi[keep]
            fj = fj[keep]
        if alive.size:
            rest = (np.abs(fi + ai / 2.0 - fj) < thresholds.type2_ghz) | (
                np.abs(fi - (fj + aj)) < thresholds.type3_ghz
            ) | (np.abs(fj - (fi + ai)) < thresholds.type3_ghz)
            keep = ~rest.any(axis=1)
            if not keep.all():
                alive = alive[keep]
                sub = sub[keep]
        start, width = stop, 2 * width

    # Shared-control criteria (types 5-7) on the pair survivors.
    triples = allocation.control_triples
    if triples.shape[0] and alive.size:
        control = triples[:, 0]
        t_a = triples[:, 1]
        t_b = triples[:, 2]
        fi = sub[:, control]
        fj = sub[:, t_a]
        fk = sub[:, t_b]
        ai = alpha[control][np.newaxis, :]
        aj = alpha[t_a][np.newaxis, :]
        ak = alpha[t_b][np.newaxis, :]

        type5 = np.abs(fj - fk) < thresholds.type5_ghz
        type6 = (np.abs(fj - (fk + ak)) < thresholds.type6_ghz) | (
            np.abs(fk - (fj + aj)) < thresholds.type6_ghz
        )
        type7 = np.abs(2.0 * fi + ai - (fj + fk)) < thresholds.type7_ghz
        triple_any = type5 | type6 | type7
        alive = alive[~triple_any.any(axis=1)]

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
