"""Coupling maps: the device-level view of qubit-qubit connectivity.

A :class:`CouplingMap` wraps an undirected coupling graph together with the
all-pairs shortest-path distance matrix that the compiler's layout and
routing passes need.  It is deliberately independent of frequencies and
error rates so it can describe both monolithic lattices and assembled
multi-chip modules (where some couplings are inter-chip links).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.topology.base import adjacency_rows, rows_connected

__all__ = ["CouplingMap"]


@dataclass
class CouplingMap:
    """Undirected qubit connectivity with cached distances.

    Attributes
    ----------
    num_qubits:
        Number of physical qubits.
    edges:
        Undirected couplings as ``(low, high)`` index pairs.
    link_edges:
        Subset of ``edges`` that cross a chiplet boundary (empty for
        monolithic devices).
    """

    num_qubits: int
    edges: list[tuple[int, int]]
    link_edges: frozenset[tuple[int, int]] = frozenset()
    _distance: np.ndarray | None = field(default=None, repr=False, compare=False)
    _neighbors: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _distance_rows: list[list[int]] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if not pairs.size:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        bad = (low == high) | (low < 0) | (high >= self.num_qubits)
        if bad.any():
            u, v = pairs[int(bad.argmax())]
            if u == v:
                raise ValueError("self-coupling is not allowed")
            raise ValueError(f"edge ({u}, {v}) references an unknown qubit")
        # (low, high) in lexicographic order is the sort order of one
        # integer key per edge, which ``np.unique`` also deduplicates.
        keys = np.unique(low * self.num_qubits + high)
        low, high = np.divmod(keys, max(self.num_qubits, 1))
        self.edges = list(zip(low.tolist(), high.tolist()))
        self.link_edges = frozenset(
            (min(u, v), max(u, v)) for u, v in self.link_edges
        )
        unknown = self.link_edges - set(self.edges)
        if unknown:
            raise ValueError(f"link edges not present in coupling map: {sorted(unknown)}")

    @classmethod
    def from_lattice(cls, lattice) -> "CouplingMap":
        """Build a coupling map from a :class:`HeavyHexLattice`."""
        return cls(num_qubits=lattice.num_qubits, edges=list(lattice.edges))

    @property
    def num_edges(self) -> int:
        """Number of couplings."""
        return len(self.edges)

    def neighbors(self, qubit: int) -> list[int]:
        """Neighbouring qubits of ``qubit``, in ascending order."""
        return self._rows()[qubit]

    def _rows(self) -> list[list[int]]:
        if self._neighbors is None:
            self._neighbors = adjacency_rows(self.num_qubits, self.edges)
        return self._neighbors

    def is_connected(self) -> bool:
        """True when the coupling graph is connected (a BFS over its rows)."""
        return rows_connected(self._rows())

    def has_edge(self, u: int, v: int) -> bool:
        """True when qubits ``u`` and ``v`` are directly coupled."""
        return (min(u, v), max(u, v)) in self._edge_set()

    def _edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def is_link(self, u: int, v: int) -> bool:
        """True when the coupling between ``u`` and ``v`` is an inter-chip link."""
        return (min(u, v), max(u, v)) in self.link_edges

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (hops), cached."""
        if self._distance is None:
            # Imported here so that processes which never compile (the
            # yield and service paths) never load scipy.sparse.
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            rows, cols, data = [], [], []
            for u, v in self.edges:
                rows.extend((u, v))
                cols.extend((v, u))
                data.extend((1, 1))
            matrix = csr_matrix(
                (data, (rows, cols)), shape=(self.num_qubits, self.num_qubits)
            )
            self._distance = shortest_path(matrix, method="D", unweighted=True)
        return self._distance

    def distance_rows(self) -> list[list[int]]:
        """The hop distances as nested lists of ints, cached.

        For scalar per-gate lookups (``rows[u][v]``) in the router.  An
        unreachable pair reads ``num_qubits``, which exceeds every finite
        hop count, so comparisons between distances keep their order.
        """
        if self._distance_rows is None:
            matrix = self.distance_matrix()
            self._distance_rows = (
                np.where(np.isfinite(matrix), matrix, self.num_qubits)
                .astype(np.int64)
                .tolist()
            )
        return self._distance_rows

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance (hops) between two qubits."""
        return int(self.distance_matrix()[u, v])
