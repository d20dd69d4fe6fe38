"""Ring / linear-chain lattice generation.

The one-dimensional chain is the sparsest connected topology a device
can have (degree <= 2) and the natural lower anchor of the scenario
space: fewer couplings mean fewer collision constraints per qubit, so
yield-vs-size curves decay markedly slower than on heavy-hex or square
lattices.  Chains are also the topology of early fixed-frequency
multi-qubit demonstrations and of ion-trap-style shuttling layouts.

Two variants exist:

* an **open chain** (the default, and what the registered ``ring``
  architecture builds) — sites ``0..n-1`` coupled consecutively;
* a **closed ring** (``build_ring(..., closed=True)``) — the chain plus
  the wrap-around coupling.

The registered architecture uses open chains deliberately: under the
three-frequency period-3 plan every *interior* control already drives
one target of each other label, so the Type-5 criterion (two same-label
targets on one control) leaves a closed ring with no valid inter-chip
link site at all, while an open chain whose length is a multiple of
three ends on a label-2 qubit with a free target slot — exactly what
end-to-end MCM chaining needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.base import LatticeOps, QubitSite

__all__ = ["RingLattice", "build_ring", "ring_by_qubit_count"]


@dataclass
class RingLattice(LatticeOps):
    """A one-dimensional qubit lattice: an open chain or a closed ring.

    Attributes
    ----------
    closed:
        True when the wrap-around coupling is present.
    sites:
        One :class:`QubitSite` per qubit, all in row 0, ``col == index``.
    edges:
        Undirected couplings as ``(low, high)`` qubit-index pairs.
    name:
        Human readable identifier.
    """

    closed: bool
    sites: list[QubitSite]
    edges: list[tuple[int, int]]
    name: str = "ring"
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def relabelled(self, name: str) -> "RingLattice":
        """Return a copy of the lattice under a different name."""
        return RingLattice(
            closed=self.closed,
            sites=list(self.sites),
            edges=list(self.edges),
            name=name,
        )


def build_ring(num_qubits: int, closed: bool = False, name: str = "ring") -> RingLattice:
    """Construct a chain (``closed=False``) or ring (``closed=True``).

    Parameters
    ----------
    num_qubits:
        Number of qubits (>= 2; a closed ring needs >= 3).
    closed:
        Add the wrap-around coupling between the last and first qubit.
    name:
        Optional identifier stored on the lattice.
    """
    if num_qubits < 2:
        raise ValueError("a ring lattice needs at least 2 qubits")
    if closed and num_qubits < 3:
        raise ValueError("a closed ring needs at least 3 qubits")
    sites = [QubitSite(i, "dense", 0, i) for i in range(num_qubits)]
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    if closed:
        edges.append((0, num_qubits - 1))
    return RingLattice(closed=closed, sites=sites, edges=edges, name=name)


def ring_by_qubit_count(num_qubits: int, name: str | None = None) -> RingLattice:
    """Build the registered ``ring`` scenario: an open chain of exact size.

    Open rather than closed by design — see the module docstring for why
    the period-3 frequency plan forbids inter-chip links on closed
    rings.  Explicit closed rings remain available via
    :func:`build_ring`.

    Parameters
    ----------
    num_qubits:
        Exact number of qubits the chain must contain (>= 2).
    name:
        Optional identifier; defaults to ``"ring-<n>"``.
    """
    return build_ring(num_qubits, closed=False, name=name or f"ring-{num_qubits}")
