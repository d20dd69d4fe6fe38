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

The per-criterion formulas are the same as
:func:`repro.core.collisions.collision_free_mask` — the graph counts one
violation per (criterion type, edge/triple) pair, exactly like
:meth:`repro.core.collisions.CollisionReport.num_collisions` — so a
device the graph scores at zero violations is collision-free under the
authoritative batched mask.
"""

from __future__ import annotations

import numpy as np

from repro.core.collisions import CollisionThresholds
from repro.core.frequencies import FrequencyAllocation

__all__ = ["CollisionGraph"]

_EMPTY = np.zeros(0, dtype=np.int64)


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
        self.edge_control = edges[:, 0] if edges.shape[0] else _EMPTY
        self.edge_target = edges[:, 1] if edges.shape[0] else _EMPTY
        self.triple_control = triples[:, 0] if triples.shape[0] else _EMPTY
        self.triple_a = triples[:, 1] if triples.shape[0] else _EMPTY
        self.triple_b = triples[:, 2] if triples.shape[0] else _EMPTY

        edge_lists: list[list[int]] = [[] for _ in range(self.num_qubits)]
        for index in range(edges.shape[0]):
            edge_lists[int(edges[index, 0])].append(index)
            edge_lists[int(edges[index, 1])].append(index)
        triple_lists: list[list[int]] = [[] for _ in range(self.num_qubits)]
        for index in range(triples.shape[0]):
            for qubit in triples[index]:
                triple_lists[int(qubit)].append(index)
        self._edges_by_qubit = [np.asarray(l, dtype=np.int64) for l in edge_lists]
        self._triples_by_qubit = [np.asarray(l, dtype=np.int64) for l in triple_lists]
        self._neighbors_by_qubit: list[np.ndarray] | None = None
        self._local_terms: list[tuple[tuple, tuple]] | None = None

    # ------------------------------------------------------------------ #
    # Criterion evaluation (single device, vectorised over constraints)
    # ------------------------------------------------------------------ #
    def edge_violations(
        self, frequencies: np.ndarray, edge_indices: np.ndarray | None = None
    ) -> int:
        """Violated pair criteria (types 1-4) over selected edges.

        ``edge_indices`` restricts the check to a subset (the touched
        edges of a candidate shift); ``None`` checks every edge.
        """
        control = self.edge_control
        target = self.edge_target
        if edge_indices is not None:
            control = control[edge_indices]
            target = target[edge_indices]
        if control.shape[0] == 0:
            return 0
        th = self.thresholds
        fi = frequencies[control]
        fj = frequencies[target]
        ai = self.alpha[control]
        aj = self.alpha[target]
        type1 = np.abs(fi - fj) < th.type1_ghz
        type2 = np.abs(fi + ai / 2.0 - fj) < th.type2_ghz
        type3 = (np.abs(fi - (fj + aj)) < th.type3_ghz) | (
            np.abs(fj - (fi + ai)) < th.type3_ghz
        )
        type4 = (fj < fi + ai) | (fi < fj)
        return int(type1.sum() + type2.sum() + type3.sum() + type4.sum())

    def triple_violations(
        self, frequencies: np.ndarray, triple_indices: np.ndarray | None = None
    ) -> int:
        """Violated shared-control criteria (types 5-7) over selected triples."""
        control = self.triple_control
        t_a = self.triple_a
        t_b = self.triple_b
        if triple_indices is not None:
            control = control[triple_indices]
            t_a = t_a[triple_indices]
            t_b = t_b[triple_indices]
        if control.shape[0] == 0:
            return 0
        th = self.thresholds
        fi = frequencies[control]
        fj = frequencies[t_a]
        fk = frequencies[t_b]
        ai = self.alpha[control]
        aj = self.alpha[t_a]
        ak = self.alpha[t_b]
        type5 = np.abs(fj - fk) < th.type5_ghz
        type6 = (np.abs(fj - (fk + ak)) < th.type6_ghz) | (
            np.abs(fk - (fj + aj)) < th.type6_ghz
        )
        type7 = np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz
        return int(type5.sum() + type6.sum() + type7.sum())

    def total_violations(self, frequencies: np.ndarray) -> int:
        """Violated criteria over the whole device (0 == collision-free)."""
        return self.edge_violations(frequencies) + self.triple_violations(frequencies)

    # ------------------------------------------------------------------ #
    # Criterion evaluation (device-major: whole batch, one pass)
    # ------------------------------------------------------------------ #
    def batch_total_violations(self, frequencies: np.ndarray) -> np.ndarray:
        """Per-device violated-criteria counts for a ``(batch, num_qubits)``
        array — every criterion extracted across the batch dimension in one
        vectorised pass.

        Row ``i`` equals ``total_violations(frequencies[i])`` exactly (the
        same comparisons summed in a different order over integers), so
        the batch repair driver can screen every collided device up front
        instead of paying one Python-level evaluation per die.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim == 1:
            freqs = freqs[np.newaxis, :]
        counts = np.zeros(freqs.shape[0], dtype=np.int64)
        th = self.thresholds
        if self.edge_control.shape[0]:
            fi = freqs[:, self.edge_control]
            fj = freqs[:, self.edge_target]
            ai = self.alpha[self.edge_control][np.newaxis, :]
            aj = self.alpha[self.edge_target][np.newaxis, :]
            counts += (np.abs(fi - fj) < th.type1_ghz).sum(axis=1)
            counts += (np.abs(fi + ai / 2.0 - fj) < th.type2_ghz).sum(axis=1)
            counts += (
                (np.abs(fi - (fj + aj)) < th.type3_ghz)
                | (np.abs(fj - (fi + ai)) < th.type3_ghz)
            ).sum(axis=1)
            counts += ((fj < fi + ai) | (fi < fj)).sum(axis=1)
        if self.triple_control.shape[0]:
            fi = freqs[:, self.triple_control]
            fj = freqs[:, self.triple_a]
            fk = freqs[:, self.triple_b]
            ai = self.alpha[self.triple_control][np.newaxis, :]
            aj = self.alpha[self.triple_a][np.newaxis, :]
            ak = self.alpha[self.triple_b][np.newaxis, :]
            counts += (np.abs(fj - fk) < th.type5_ghz).sum(axis=1)
            counts += (
                (np.abs(fj - (fk + ak)) < th.type6_ghz)
                | (np.abs(fk - (fj + aj)) < th.type6_ghz)
            ).sum(axis=1)
            counts += (np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz).sum(axis=1)
        return counts

    # ------------------------------------------------------------------ #
    # Locality
    # ------------------------------------------------------------------ #
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
            for u, v in zip(self.edge_control, self.edge_target):
                members[int(u)].add(int(v))
                members[int(v)].add(int(u))
            for c, a, b in zip(self.triple_control, self.triple_a, self.triple_b):
                triple = (int(c), int(a), int(b))
                for q in triple:
                    members[q].update(triple)
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
        the same expression and operand order as the vectorised methods,
        so on a float64 array both sides do the same IEEE double
        arithmetic and every comparison agrees bit for bit, NaN
        included.  This is the repair strategies' per-candidate re-check.
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
        alpha = self.alpha.tolist()
        edge_terms = [
            (c, t, alpha[c], alpha[t])
            for c, t in zip(self.edge_control.tolist(), self.edge_target.tolist())
        ]
        triple_terms = [
            (c, a, b, alpha[c], alpha[a], alpha[b])
            for c, a, b in zip(
                self.triple_control.tolist(),
                self.triple_a.tolist(),
                self.triple_b.tolist(),
            )
        ]
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
        counts = np.zeros(self.num_qubits, dtype=np.int64)
        th = self.thresholds
        if self.edge_control.shape[0]:
            fi = frequencies[self.edge_control]
            fj = frequencies[self.edge_target]
            ai = self.alpha[self.edge_control]
            aj = self.alpha[self.edge_target]
            per_edge = (
                (np.abs(fi - fj) < th.type1_ghz).astype(np.int64)
                + (np.abs(fi + ai / 2.0 - fj) < th.type2_ghz)
                + (
                    (np.abs(fi - (fj + aj)) < th.type3_ghz)
                    | (np.abs(fj - (fi + ai)) < th.type3_ghz)
                )
                + ((fj < fi + ai) | (fi < fj))
            )
            np.add.at(counts, self.edge_control, per_edge)
            np.add.at(counts, self.edge_target, per_edge)
        if self.triple_control.shape[0]:
            fi = frequencies[self.triple_control]
            fj = frequencies[self.triple_a]
            fk = frequencies[self.triple_b]
            ai = self.alpha[self.triple_control]
            aj = self.alpha[self.triple_a]
            ak = self.alpha[self.triple_b]
            per_triple = (
                (np.abs(fj - fk) < th.type5_ghz).astype(np.int64)
                + (
                    (np.abs(fj - (fk + ak)) < th.type6_ghz)
                    | (np.abs(fk - (fj + aj)) < th.type6_ghz)
                )
                + (np.abs(2.0 * fi + ai - (fj + fk)) < th.type7_ghz)
            )
            np.add.at(counts, self.triple_control, per_triple)
            np.add.at(counts, self.triple_a, per_triple)
            np.add.at(counts, self.triple_b, per_triple)
        return counts

    def violating_qubits(self, frequencies: np.ndarray) -> np.ndarray:
        """Sorted indices of qubits participating in a violated criterion."""
        return np.flatnonzero(self.per_qubit_violations(frequencies) > 0)
