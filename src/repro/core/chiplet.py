"""Chiplet designs: small dies intended for MCM integration.

A :class:`ChipletDesign` is a lattice of any registered topology (see
:data:`repro.core.architecture.ARCHITECTURES`; heavy-hex by default)
with its topology's frequency plan applied, plus the bookkeeping needed
to stitch chiplets into a multi-chip module: which boundary qubits can
host an inter-chip link, and which labels their existing Cross-Resonance
targets carry (so that adding a link never creates an *ideal* Table I
collision).

The paper studies heavy-hex chiplets of 10, 20, 40, 60, 90, 120, 160,
200 and 250 qubits; :data:`PAPER_CHIPLET_SIZES` lists them and
:func:`ChipletDesign.build` constructs any size of any topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.architecture import DEFAULT_TOPOLOGY, get_architecture
from repro.core.collisions import check_ideal_plan
from repro.core.frequencies import FrequencyAllocation, FrequencySpec
from repro.topology.base import Lattice

__all__ = ["ChipletDesign", "PAPER_CHIPLET_SIZES"]

#: Chiplet sizes evaluated in the paper (Section VII-B).
PAPER_CHIPLET_SIZES = (10, 20, 40, 60, 90, 120, 160, 200, 250)


@dataclass
class ChipletDesign:
    """A chiplet: lattice + frequency plan + link-site metadata.

    Attributes
    ----------
    lattice:
        The chiplet's qubit lattice (any registered topology).
    allocation:
        Ideal frequency plan of the chiplet.
    name:
        Identifier, e.g. ``"chiplet-20"``.
    """

    lattice: Lattice
    allocation: FrequencyAllocation
    name: str
    _row_boundaries: dict[str, dict[int, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        num_qubits: int,
        spec: FrequencySpec | None = None,
        name: str | None = None,
        topology: str | None = None,
    ) -> "ChipletDesign":
        """Construct a chiplet with exactly ``num_qubits`` qubits.

        The underlying lattice comes from the registered topology's
        factory (heavy-hex when ``topology`` is omitted), the labels
        from its frequency plan, and the result must be ideally
        collision-free under the given frequency spec.
        """
        arch = get_architecture(topology)
        if name is not None:
            label = name
        elif arch.name == DEFAULT_TOPOLOGY:
            label = f"chiplet-{num_qubits}"
        else:
            label = f"chiplet-{arch.name}-{num_qubits}"
        lattice = arch.lattice(num_qubits, name=label)
        allocation = arch.allocate(lattice, spec=spec)
        check_ideal_plan(allocation, f"chiplet design {label}")
        return cls(lattice=lattice, allocation=allocation, name=label)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits on the chiplet."""
        return self.lattice.num_qubits

    @property
    def num_edges(self) -> int:
        """Number of on-chip couplings."""
        return self.lattice.num_edges

    @property
    def labels(self) -> np.ndarray:
        """Per-qubit frequency labels."""
        return self.allocation.labels

    def edges(self) -> list[tuple[int, int]]:
        """On-chip couplings as ``(low, high)`` pairs."""
        return list(self.lattice.edges)

    def control_target_labels(self) -> dict[int, list[int]]:
        """For every qubit acting as a control: the labels of its targets.

        MCM assembly uses this to verify that attaching an inter-chip link to
        a boundary qubit never gives a control two targets of the same label
        (which would be a guaranteed near-null, Type 5 collision).
        """
        directed = self.allocation.directed_edges
        targets: dict[int, list[int]] = {}
        for control, label in zip(
            directed[:, 0].tolist(), self.labels[directed[:, 1]].tolist()
        ):
            targets.setdefault(control, []).append(label)
        return targets

    # ------------------------------------------------------------------ #
    # Boundary / link-site helpers
    # ------------------------------------------------------------------ #
    def _boundary(self, side: str) -> dict[int, int]:
        """Boundary qubits keyed by row (left/right) or column (top/bottom)."""
        if side not in self._row_boundaries:
            if side == "right":
                qubits = self.lattice.boundary_right()
                keyed = {self.lattice.site(q).row: q for q in qubits}
            elif side == "left":
                qubits = self.lattice.boundary_left()
                keyed = {self.lattice.site(q).row: q for q in qubits}
            elif side == "bottom":
                qubits = self.lattice.boundary_bottom()
                keyed = {self.lattice.site(q).col: q for q in qubits}
            elif side == "top":
                qubits = self.lattice.boundary_top()
                keyed = {self.lattice.site(q).col: q for q in qubits}
            else:
                raise ValueError(f"unknown boundary side {side!r}")
            self._row_boundaries[side] = keyed
        return dict(self._row_boundaries[side])

    def boundary_qubits(self, side: str) -> dict[int, int]:
        """Boundary qubits of one side, keyed by dense row (or column).

        Parameters
        ----------
        side:
            One of ``"left"``, ``"right"``, ``"top"``, ``"bottom"``.
        """
        return self._boundary(side)
