"""Collision-graph extraction: from violated criteria to repairable qubits.

Repairing a device is a *local* optimisation problem: shifting one
qubit's frequency can only change the Table I criteria whose edge or
control-triple contains that qubit.  :class:`CollisionGraph` precomputes
that incidence structure once per :class:`FrequencyAllocation` — the
edge indices and triple indices touching every qubit — so a repair
strategy can

1. evaluate the full device once (vectorised over all edges/triples),
2. locate the qubits participating in violated criteria, and
3. after each candidate shift, re-check **only the touched criteria**
   instead of the whole device, through :meth:`CollisionGraph.local_violations`:
   a scalar kernel over per-qubit tuples of plain Python numbers (the 2-9
   criteria touching one qubit are too few for numpy's per-call overhead
   to pay off), bit-identical to the vectorised subset evaluation.

The vectorised counts evaluate the criterion functions of
:mod:`repro.core.collisions` (through ``criterion_flags``), the ones the
batched mask and ``find_collisions`` call, and count one violation per
(criterion type, edge/triple) pair like ``CollisionReport.num_collisions``,
so a device the graph scores at zero violations is collision-free under
the authoritative batched mask.
"""

from __future__ import annotations

import numpy as np

from repro.core.collisions import (
    PAIR_CRITERIA,
    TRIPLE_CRITERIA,
    CollisionThresholds,
    criterion_flags,
)
from repro.core.frequencies import FrequencyAllocation

__all__ = ["CollisionGraph"]


class CollisionGraph:
    """Incidence structure of the seven criteria over one allocation.

    Parameters
    ----------
    allocation:
        The frequency plan whose directed edges / control triples define
        the criteria.  The graph is device-independent: one instance
        serves every sampled device of a batch.
    thresholds:
        Criterion windows; defaults to the paper's Table I values.
    """

    def __init__(
        self,
        allocation: FrequencyAllocation,
        thresholds: CollisionThresholds | None = None,
    ):
        self.allocation = allocation
        self.thresholds = thresholds or CollisionThresholds()
        self.ideal = allocation.ideal_frequencies
        self.alpha = allocation.anharmonicities
        self.num_qubits = allocation.num_qubits

        edges = allocation.directed_edges
        triples = allocation.control_triples
        self.edge_control, self.edge_target = edges.T
        self.triple_control, self.triple_a, self.triple_b = triples.T
        edge_columns = (self.edge_control, self.edge_target)
        triple_columns = (self.triple_control, self.triple_a, self.triple_b)
        # (qubit columns, their anharmonicities) of the edges and triples.
        self._edges = (edge_columns, tuple(self.alpha[c] for c in edge_columns))
        self._triples = (triple_columns, tuple(self.alpha[c] for c in triple_columns))
        # The qubit each flag scores, in per_qubit_violations' flag order.
        self._flag_qubits = np.concatenate(
            edge_columns * len(PAIR_CRITERIA) + triple_columns * len(TRIPLE_CRITERIA)
        )

        incidence = []
        for members in (edges, triples):
            lists: list[list[int]] = [[] for _ in range(self.num_qubits)]
            for index, group in enumerate(members.tolist()):
                for qubit in group:
                    lists[qubit].append(index)
            incidence.append([np.asarray(l, dtype=np.int64) for l in lists])
        self._edges_by_qubit, self._triples_by_qubit = incidence
        self._neighbors_by_qubit: list[np.ndarray] | None = None
        self._local_terms: list[tuple[tuple, tuple]] | None = None

    def _flags(self, members: tuple, frequencies: np.ndarray, indices=None) -> list:
        """``criterion_flags`` of ``members``, or of its subset ``indices``."""
        columns, alphas = members
        if indices is not None:
            columns = tuple(column[indices] for column in columns)
            alphas = tuple(alpha[indices] for alpha in alphas)
        return criterion_flags(frequencies, columns, alphas, self.thresholds)

    def edge_violations(
        self, frequencies: np.ndarray, edge_indices: np.ndarray | None = None
    ) -> int:
        """Violated pair criteria over selected edges (``None``: all)."""
        flags = self._flags(self._edges, frequencies, edge_indices)
        return sum(map(np.count_nonzero, flags))

    def triple_violations(
        self, frequencies: np.ndarray, triple_indices: np.ndarray | None = None
    ) -> int:
        """Violated shared-control criteria over selected triples."""
        flags = self._flags(self._triples, frequencies, triple_indices)
        return sum(map(np.count_nonzero, flags))

    def total_violations(self, frequencies: np.ndarray) -> int:
        """Violated criteria over the whole device (0 == collision-free)."""
        return self.edge_violations(frequencies) + self.triple_violations(frequencies)

    def batch_total_violations(self, frequencies: np.ndarray) -> np.ndarray:
        """Per-device violated-criteria counts for a ``(batch, num_qubits)``
        array, in one vectorised pass over the batch.

        Row ``i`` equals ``total_violations(frequencies[i])``, so the
        batch repair driver screens every collided device up front
        instead of paying one Python-level evaluation per die.
        """
        freqs = np.atleast_2d(np.asarray(frequencies, dtype=float))
        return sum(
            flags.sum(axis=1)
            for members in (self._edges, self._triples)
            for flags in self._flags(members, freqs)
        )

    def touched(self, qubit: int) -> tuple[np.ndarray, np.ndarray]:
        """``(edge_indices, triple_indices)`` containing ``qubit``.

        These are exactly the criteria a shift of ``qubit`` can change;
        everything else is invariant under the shift.
        """
        return self._edges_by_qubit[qubit], self._triples_by_qubit[qubit]

    def constraint_neighbors(self, qubit: int) -> np.ndarray:
        """Sorted qubits sharing a criterion with ``qubit`` (incl. itself).

        Shifting any of these invalidates a precomputed evaluation of
        ``qubit``'s touched criteria; shifting anything else cannot.
        The greedy strategy's staged screen uses this as its dirty set.
        Built lazily in one pass and cached on the graph.
        """
        if self._neighbors_by_qubit is None:
            members: list[set[int]] = [{q} for q in range(self.num_qubits)]
            for columns, _ in (self._edges, self._triples):
                for group in zip(*(column.tolist() for column in columns)):
                    for q in group:
                        members[q].update(group)
            self._neighbors_by_qubit = [
                np.fromiter(sorted(s), count=len(s), dtype=np.int64) for s in members
            ]
        return self._neighbors_by_qubit[qubit]

    def local_violations(self, frequencies: np.ndarray, qubit: int) -> int:
        """Violated criteria among the constraints touching ``qubit``.

        Equals ``edge_violations(frequencies, e) + triple_violations(
        frequencies, t)`` with ``(e, t) = touched(qubit)``, computed by a
        scalar kernel: per qubit, one ``(control, target, alpha_c,
        alpha_t)`` tuple per touched edge and one ``(control, a, b,
        alpha_c, alpha_a, alpha_b)`` tuple per touched triple, built
        lazily in one pass and cached on the graph.  Frequencies are read
        with ``frequencies.item(i)`` and every criterion is written with
        the same expression and operand order as the shared criterion
        functions, so on a float64 array both sides do the same IEEE
        double arithmetic and every comparison agrees bit for bit, NaN
        included.  This is the repair strategies' per-candidate re-check,
        and the one transcription of the criteria besides the shared
        functions, kept for speed: on a 65-qubit heavy-hex plan (2-core
        x86 host) it takes 2.0 us a call, against 7.1 us for the shared
        functions called term by term and 28 us for the numpy subset.
        ``tests/test_repair_vectorized.py`` pins it to the shared counts.
        """
        if self._local_terms is None:
            self._local_terms = self._build_local_terms()
        edges, triples = self._local_terms[qubit]
        th = self.thresholds
        item = frequencies.item
        count = 0
        if edges:
            t1, t2, t3 = th.type1_ghz, th.type2_ghz, th.type3_ghz
            for control, target, ai, aj in edges:
                fi = item(control)
                fj = item(target)
                count += (
                    (abs(fi - fj) < t1)
                    + (abs(fi + ai / 2.0 - fj) < t2)
                    + ((abs(fi - (fj + aj)) < t3) or (abs(fj - (fi + ai)) < t3))
                    + ((fj < fi + ai) or (fi < fj))
                )
        if triples:
            t5, t6, t7 = th.type5_ghz, th.type6_ghz, th.type7_ghz
            for control, a, b, ai, aj, ak in triples:
                fi = item(control)
                fj = item(a)
                fk = item(b)
                count += (
                    (abs(fj - fk) < t5)
                    + ((abs(fj - (fk + ak)) < t6) or (abs(fk - (fj + aj)) < t6))
                    + (abs(2.0 * fi + ai - (fj + fk)) < t7)
                )
        return count

    def _build_local_terms(self) -> list[tuple[tuple, tuple]]:
        edge_terms, triple_terms = (
            list(zip(*(array.tolist() for array in columns + alphas)))
            for columns, alphas in (self._edges, self._triples)
        )
        return [
            (
                tuple(edge_terms[i] for i in edge_idx.tolist()),
                tuple(triple_terms[i] for i in triple_idx.tolist()),
            )
            for edge_idx, triple_idx in zip(
                self._edges_by_qubit, self._triples_by_qubit
            )
        ]

    def per_qubit_violations(self, frequencies: np.ndarray) -> np.ndarray:
        """Number of violated criteria each qubit participates in.

        Computed in one vectorised pass: every violated edge scores both
        endpoints, every violated triple all three members.
        """
        # Each flag array once per member column, in _flag_qubits' order.
        weights = [
            flags
            for members in (self._edges, self._triples)
            for flags in self._flags(members, frequencies)
            for _ in members[0]
        ]
        counts = np.bincount(self._flag_qubits, np.concatenate(weights), self.num_qubits)
        return counts.astype(np.int64)

    def violating_qubits(self, frequencies: np.ndarray) -> np.ndarray:
        """Sorted indices of qubits participating in a violated criterion."""
        return np.flatnonzero(self.per_qubit_violations(frequencies) > 0)
