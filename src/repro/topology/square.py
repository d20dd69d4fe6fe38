"""Square (grid) lattice generation.

The square lattice is the workhorse topology of tunable-coupler
superconducting processors (e.g. Google's Sycamore) and of the surface
code: qubits on the vertices of a regular grid, each coupled to its four
nearest neighbours.  At degree four it is strictly denser than heavy-hex
(degree three), so fixed-frequency devices on it face *more* simultaneous
collision constraints per qubit — the yield-vs-size curves collapse
earlier, exposing the sharper phase-transition behaviour the denser
constraint graph implies.  Avoiding ideal collisions needs five
frequencies instead of heavy-hex's three (see
:class:`repro.core.frequencies.SquareFiveFrequencyPlan`).

:func:`square_by_qubit_count` hits an *exact* qubit count by filling an
(approximately square) grid in row-major order and simply stopping after
``num_qubits`` sites; a partially filled last row keeps the lattice
connected because every site attaches to its left or upper neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.topology.base import LatticeOps, QubitSite

__all__ = ["SquareLattice", "build_square", "square_by_qubit_count"]


@dataclass
class SquareLattice(LatticeOps):
    """A square-grid qubit lattice (degree <= 4).

    Attributes
    ----------
    rows, cols:
        Grid dimensions of the generating (possibly partially filled)
        lattice.
    sites:
        One :class:`QubitSite` per qubit, row-major.
    edges:
        Undirected couplings as ``(low, high)`` qubit-index pairs.
    name:
        Human readable identifier.
    """

    rows: int
    cols: int
    sites: list[QubitSite]
    edges: list[tuple[int, int]]
    name: str = "square"
    _graph: nx.Graph | None = field(default=None, repr=False, compare=False)
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def relabelled(self, name: str) -> "SquareLattice":
        """Return a copy of the lattice under a different name."""
        return SquareLattice(
            rows=self.rows,
            cols=self.cols,
            sites=list(self.sites),
            edges=list(self.edges),
            name=name,
        )


def build_square(
    rows: int, cols: int, num_qubits: int | None = None, name: str = "square"
) -> SquareLattice:
    """Construct a square lattice, optionally truncated in row-major order.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.
    num_qubits:
        When given, keep only the first ``num_qubits`` sites in row-major
        order (the last row may be partially filled); defaults to the
        full ``rows * cols`` grid.
    name:
        Optional identifier stored on the lattice.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    total = rows * cols
    if num_qubits is None:
        num_qubits = total
    if not 1 <= num_qubits <= total:
        raise ValueError(f"num_qubits must lie in [1, {total}]")

    sites: list[QubitSite] = []
    edges: list[tuple[int, int]] = []
    for index in range(num_qubits):
        row, col = divmod(index, cols)
        sites.append(QubitSite(index, "dense", row, col))
        if col > 0:
            edges.append((index - 1, index))
        if row > 0:
            edges.append((index - cols, index))
    return SquareLattice(rows=rows, cols=cols, sites=sites, edges=edges, name=name)


def square_by_qubit_count(num_qubits: int, name: str | None = None) -> SquareLattice:
    """Build a connected square lattice with exactly ``num_qubits`` qubits.

    The grid is the most square shape covering the count
    (``rows = floor(sqrt(n))``, ``cols = ceil(n / rows)``) filled
    row-major, so the result is always connected and the aspect ratio
    stays close to one — the same low-diameter preference the heavy-hex
    factory applies.

    Parameters
    ----------
    num_qubits:
        Exact number of qubits the lattice must contain (>= 2).
    name:
        Optional identifier; defaults to ``"square-<n>"``.
    """
    if num_qubits < 2:
        raise ValueError("a square lattice needs at least 2 qubits")
    rows = max(1, int(num_qubits**0.5))
    cols = -(-num_qubits // rows)  # ceil division
    return build_square(
        rows=-(-num_qubits // cols),
        cols=cols,
        num_qubits=num_qubits,
        name=name or f"square-{num_qubits}",
    )
