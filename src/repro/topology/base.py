"""The topology plugin contract: the ``Lattice`` protocol and shared ops.

Everything downstream of this package — frequency allocation, collision
screening, chiplet design, MCM stitching, calibration synthesis, the
yield Monte-Carlo — consumes qubit topologies exclusively through the
:class:`Lattice` protocol defined here.  A topology plugin therefore
needs only three things:

1. a dataclass whose ``sites``/``edges``/``name`` fields describe the
   lattice and which inherits :class:`LatticeOps` for the derived
   operations (connectivity, boundaries, fingerprint);
2. a ``<topology>_by_qubit_count`` factory building a connected lattice
   with an exact qubit count;
3. a :class:`repro.core.frequencies.FrequencyPlan` assigning collision-
   avoiding frequency labels, registered together with the factory in
   :data:`repro.core.architecture.ARCHITECTURES`.

Sites carry integer ``(row, col)`` coordinates.  They are geometric
hints, not physics: the boundary helpers use them to decide which qubits
can host inter-chip links (leftmost/rightmost per row, topmost/
bottommost per column), and frequency plans may use them to lay out
periodic label patterns.  One-dimensional topologies simply put every
site in row 0.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

__all__ = ["QubitSite", "Lattice", "LatticeOps", "adjacency_rows", "rows_connected"]


def adjacency_rows(num_nodes: int, edges) -> list[list[int]]:
    """Neighbour lists of an undirected graph, in edge order."""
    rows: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def rows_connected(rows: list[list[int]]) -> bool:
    """True when a BFS from node 0 over adjacency rows reaches every node.

    Like ``networkx.is_connected``, a graph without nodes has no
    connectivity to speak of and raises :class:`ValueError`.
    """
    if not rows:
        raise ValueError("connectivity is undefined for the null graph")
    seen = bytearray(len(rows))
    seen[0] = 1
    order = [0]
    for node in order:  # the queue grows while it is read
        for neighbour in rows[node]:
            if not seen[neighbour]:
                seen[neighbour] = 1
                order.append(neighbour)
    return len(order) == len(rows)


@dataclass(frozen=True)
class QubitSite:
    """Geometric description of one qubit in a lattice.

    Attributes
    ----------
    index:
        Integer identifier of the qubit within its lattice.
    kind:
        Topology-specific site class.  ``"dense"`` marks ordinary
        (link-capable) sites; ``"bridge"`` marks heavy-hex vertical
        bridge qubits, which are excluded from chiplet boundaries.
    row:
        Row coordinate.  For heavy-hex bridge qubits this is the index
        of the dense row *above* the bridge.
    col:
        Column coordinate within the row.
    """

    index: int
    kind: str
    row: int
    col: int

    @property
    def is_bridge(self) -> bool:
        """True when the qubit is a heavy-hex vertical bridge qubit."""
        return self.kind == "bridge"


@runtime_checkable
class Lattice(Protocol):
    """Structural contract every topology implementation satisfies.

    The pipeline only ever touches this surface, so any object carrying
    these attributes/methods (in practice: a dataclass inheriting
    :class:`LatticeOps`) plugs into chiplets, MCMs, calibration and the
    yield Monte-Carlo unchanged.
    """

    name: str
    sites: list[QubitSite]
    edges: list[tuple[int, int]]

    @property
    def num_qubits(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def site(self, index: int) -> QubitSite: ...

    def fingerprint(self) -> str: ...

    def is_connected(self) -> bool: ...

    def boundary_left(self) -> list[int]: ...

    def boundary_right(self) -> list[int]: ...

    def boundary_top(self) -> list[int]: ...

    def boundary_bottom(self) -> list[int]: ...


class LatticeOps:
    """Shared :class:`Lattice` operations derived from ``sites``/``edges``.

    Mixed into each topology dataclass (which declares the ``sites``,
    ``edges``, ``name`` and ``_fingerprint`` fields itself,
    keeping its constructor signature explicit).  All methods are pure
    functions of the declared fields, so every topology gets identical
    semantics.

    Connectivity is a BFS over adjacency rows built from ``edges``
    (:func:`rows_connected`, shared with
    :class:`repro.topology.coupling.CouplingMap`); nothing here builds a
    networkx graph.
    """

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the lattice."""
        return len(self.sites)

    @property
    def num_edges(self) -> int:
        """Number of qubit-qubit couplings in the lattice."""
        return len(self.edges)

    def site(self, index: int) -> QubitSite:
        """Return the :class:`QubitSite` for a qubit index."""
        return self.sites[index]

    def fingerprint(self) -> str:
        """A digest of ``name``, ``sites`` and ``edges``, computed once.

        Lattices are never mutated after construction, so the digest is
        cached; a pickled copy carries the same content and digest.
        """
        if self._fingerprint is None:
            sites = self.sites
            content = pickle.dumps((
                self.name,
                [(s.index, s.row, s.col) for s in sites],
                "\0".join([s.kind for s in sites]),
                list(self.edges),
            ))
            self._fingerprint = hashlib.blake2b(content, digest_size=16).hexdigest()
        return self._fingerprint

    def is_connected(self) -> bool:
        """True when every qubit can reach every other qubit."""
        return rows_connected(adjacency_rows(len(self.sites), self.edges))

    def bridge_qubits(self) -> list[int]:
        """Indices of the bridge qubits (empty for most topologies)."""
        return [site.index for site in self.sites if site.is_bridge]

    # ------------------------------------------------------------------ #
    # Boundaries (inter-chip link sites)
    # ------------------------------------------------------------------ #
    def _linkable_sites(self) -> list[QubitSite]:
        return [s for s in self.sites if not s.is_bridge]

    def boundary_right(self) -> list[int]:
        """Link-capable qubits on the right boundary (one per row)."""
        result = []
        linkable = self._linkable_sites()
        for row in sorted({s.row for s in linkable}):
            row_sites = [s for s in linkable if s.row == row]
            result.append(max(row_sites, key=lambda s: s.col).index)
        return result

    def boundary_left(self) -> list[int]:
        """Link-capable qubits on the left boundary (one per row)."""
        result = []
        linkable = self._linkable_sites()
        for row in sorted({s.row for s in linkable}):
            row_sites = [s for s in linkable if s.row == row]
            result.append(min(row_sites, key=lambda s: s.col).index)
        return result

    def boundary_bottom(self) -> list[int]:
        """Link-capable qubits in the last row, ordered by column."""
        linkable = self._linkable_sites()
        last_row = max(s.row for s in linkable)
        return [
            s.index
            for s in sorted(linkable, key=lambda s: s.col)
            if s.row == last_row
        ]

    def boundary_top(self) -> list[int]:
        """Link-capable qubits in the first row, ordered by column."""
        linkable = self._linkable_sites()
        first_row = min(s.row for s in linkable)
        return [
            s.index
            for s in sorted(linkable, key=lambda s: s.col)
            if s.row == first_row
        ]
