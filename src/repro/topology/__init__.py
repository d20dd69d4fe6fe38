"""Qubit-topology substrate: pluggable lattices and coupling maps.

The :class:`~repro.topology.base.Lattice` protocol is the plugin
contract; :mod:`~repro.topology.heavy_hex` (the paper's default),
:mod:`~repro.topology.square` and :mod:`~repro.topology.ring` implement
it.  New topologies pair a lattice module here with a frequency plan in
:mod:`repro.core.frequencies` and one registration in
:data:`repro.core.architecture.ARCHITECTURES`.
"""

from repro.topology.base import Lattice, LatticeOps, QubitSite
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import (
    HeavyHexLattice,
    build_heavy_hex,
    heavy_hex_by_qubit_count,
    heavy_hex_qubit_count,
)
from repro.topology.ring import RingLattice, build_ring, ring_by_qubit_count
from repro.topology.square import SquareLattice, build_square, square_by_qubit_count

__all__ = [
    "CouplingMap",
    "Lattice",
    "LatticeOps",
    "HeavyHexLattice",
    "QubitSite",
    "RingLattice",
    "SquareLattice",
    "build_heavy_hex",
    "build_ring",
    "build_square",
    "heavy_hex_by_qubit_count",
    "heavy_hex_qubit_count",
    "ring_by_qubit_count",
    "square_by_qubit_count",
]
