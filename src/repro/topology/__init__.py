"""Qubit-topology substrate: pluggable lattices and coupling maps.

The :class:`~repro.topology.base.Lattice` protocol is the plugin
contract; :mod:`~repro.topology.heavy_hex` (the paper's default),
:mod:`~repro.topology.square` and :mod:`~repro.topology.ring` implement
it.  New topologies pair a lattice module here with a frequency plan in
:mod:`repro.core.frequencies` and one registration in
:data:`repro.core.architecture.ARCHITECTURES`.
"""
