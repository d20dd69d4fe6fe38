"""Multi-chip module (MCM) topologies.

An :class:`MCMDesign` arranges ``k x m`` copies of one chiplet design on an
interposer and wires adjacent chiplets together with inter-chip links.  The
chiplet can be of any registered topology (heavy-hex, square, ring, ...);
link placement works purely from the chiplet's boundary sites and frequency
labels, following the paper's requirements:

* links preserve the sparse-coupling character of the lattice — they are
  placed every other boundary row horizontally and every fourth column
  vertically, and never raise a qubit's link count above one;
* the two endpoints of a link always carry different frequency labels and
  the higher-frequency endpoint acts as the control of the inter-chip
  Cross-Resonance gate;
* attaching a link never gives a control qubit two targets of the same
  label, so the *ideal* MCM frequency plan stays collision-free.

The module also provides the paper's MCM dimension-selection rule
(Section VII-B): for every chiplet count that fits in a 500-qubit budget,
keep the most "square" ``k x m`` factorisation, which yielded the 102 MCM
configurations evaluated in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.chiplet import ChipletDesign
from repro.core.collisions import check_ideal_plan
from repro.core.frequencies import FrequencyAllocation, allocation_from_labels
from repro.engine.phases import phase
from repro.topology.coupling import CouplingMap

__all__ = [
    "CrossChipCriteria",
    "InterChipLink",
    "MCMDesign",
    "mcm_dimensions_for",
    "square_dimensions_for",
    "MAX_SYSTEM_QUBITS",
]

#: Largest system size (qubits) considered by the paper's evaluation.
MAX_SYSTEM_QUBITS = 500

#: Stride (in dense rows) between horizontal inter-chip links.
HORIZONTAL_LINK_STRIDE = 2

#: Stride (in columns) between vertical inter-chip links.
VERTICAL_LINK_STRIDE = 4


@dataclass(frozen=True)
class InterChipLink:
    """One inter-chip coupling between two chiplets of an MCM.

    Attributes
    ----------
    chip_a, chip_b:
        Flat chiplet indices (row-major over the MCM grid).
    local_a, local_b:
        Qubit indices *within* each chiplet.
    global_a, global_b:
        Qubit indices within the assembled MCM.
    """

    chip_a: int
    local_a: int
    global_a: int
    chip_b: int
    local_b: int
    global_b: int

    @property
    def edge(self) -> tuple[int, int]:
        """Global coupling as a ``(low, high)`` pair."""
        return (min(self.global_a, self.global_b), max(self.global_a, self.global_b))


@dataclass(frozen=True)
class CrossChipCriteria:
    """The collision criteria of an MCM that span two chiplets.

    Every other criterion of the module lies inside one chiplet slot and
    is exactly the chiplet's own criterion on that slot: labels are
    tiled and the anharmonicities come from one spec.  So a placement of
    known-good chiplets can only fail on these.

    Attributes
    ----------
    slots, qubits:
        Chip slot and local qubit index of every module qubit the
        criteria read, in ascending global order.
    allocation:
        The link directed edges and the control triples whose members lie
        on two chips, re-indexed so that its qubit ``n`` is module qubit
        ``slots[n] * chiplet.num_qubits + qubits[n]``.
    """

    slots: np.ndarray
    qubits: np.ndarray
    allocation: FrequencyAllocation


@dataclass
class MCMDesign:
    """A ``k x m`` grid of identical chiplets joined by inter-chip links.

    Attributes
    ----------
    chiplet:
        The chiplet design replicated across the module.
    grid_rows, grid_cols:
        MCM dimensions (``k`` and ``m`` in the paper's notation).
    links:
        Inter-chip links added by the builder.
    allocation:
        Ideal frequency plan of the full MCM.
    cross_chip:
        The criteria of ``allocation`` that span two chiplets, derived
        by :meth:`build`.
    """

    chiplet: ChipletDesign
    grid_rows: int
    grid_cols: int
    links: list[InterChipLink]
    allocation: FrequencyAllocation
    name: str = ""
    cross_chip: CrossChipCriteria | None = field(default=None, repr=False, compare=False)
    _coupling: CouplingMap | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, chiplet: ChipletDesign, grid_rows: int, grid_cols: int) -> "MCMDesign":
        """Arrange ``grid_rows x grid_cols`` chiplets and wire their links.

        The build, both design checks included, books to the ``design``
        phase.
        """
        if grid_rows < 1 or grid_cols < 1:
            raise ValueError("MCM dimensions must be positive")
        if grid_rows * grid_cols < 2:
            raise ValueError("an MCM needs at least two chiplets")

        with phase("design"):
            links = _LinkBuilder(chiplet, grid_rows, grid_cols).build_links()
            num_chips = grid_rows * grid_cols
            labels = np.tile(chiplet.labels, num_chips)
            edges = _module_edges(chiplet, num_chips, links)
            allocation = allocation_from_labels(labels, edges, spec=chiplet.allocation.spec)
            name = f"mcm-{grid_rows}x{grid_cols}-{chiplet.name}"
            design = cls(
                chiplet=chiplet,
                grid_rows=grid_rows,
                grid_cols=grid_cols,
                links=links,
                allocation=allocation,
                name=name,
                cross_chip=_cross_chip_criteria(allocation, chiplet, num_chips),
            )
            check_ideal_plan(allocation, f"MCM design {name}")
            if not design.coupling_map().is_connected():
                raise ValueError(f"MCM design {name} is not connected")
        return design

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_chips(self) -> int:
        """Number of chiplets in the module."""
        return self.grid_rows * self.grid_cols

    @property
    def num_qubits(self) -> int:
        """Total number of qubits in the module."""
        return self.num_chips * self.chiplet.num_qubits

    @property
    def num_links(self) -> int:
        """Number of inter-chip couplings."""
        return len(self.links)

    @property
    def num_link_qubits(self) -> int:
        """Number of qubits participating in inter-chip links (paper's ``L``)."""
        qubits = set()
        for link in self.links:
            qubits.add(link.global_a)
            qubits.add(link.global_b)
        return len(qubits)

    def edges(self) -> list[tuple[int, int]]:
        """Every coupling of the module in its canonical order.

        Chip-major on-chip couplings (each chiplet's ``edges()`` shifted
        by its slot offset), then one entry per link in ``links`` order.
        :class:`repro.core.assembly.AssembledMCM` aligns its error row
        to this list.
        """
        return _module_edges(self.chiplet, self.num_chips, self.links)

    def link_edges(self) -> frozenset[tuple[int, int]]:
        """Global link couplings."""
        return frozenset(link.edge for link in self.links)

    def chip_offset(self, chip_index: int) -> int:
        """Global index of the first qubit of a chiplet slot."""
        if not 0 <= chip_index < self.num_chips:
            raise IndexError(f"chip index {chip_index} out of range")
        return chip_index * self.chiplet.num_qubits

    def chip_slice(self, chip_index: int) -> slice:
        """Slice of global qubit indices owned by a chiplet slot."""
        offset = self.chip_offset(chip_index)
        return slice(offset, offset + self.chiplet.num_qubits)

    def coupling_map(self) -> CouplingMap:
        """Coupling map of the full MCM, with links flagged."""
        if self._coupling is None:
            self._coupling = CouplingMap(
                num_qubits=self.num_qubits,
                edges=self.allocation.directed_edges,
                link_edges=self.link_edges(),
            )
        return self._coupling


def _module_edges(
    chiplet: ChipletDesign, num_chips: int, links: list[InterChipLink]
) -> list[tuple[int, int]]:
    qc = chiplet.num_qubits
    on_chip = chiplet.edges()
    edges: list[tuple[int, int]] = []
    for chip in range(num_chips):
        offset = chip * qc
        edges.extend((u + offset, v + offset) for u, v in on_chip)
    edges.extend(link.edge for link in links)
    return edges


def _cross_chip_criteria(
    allocation: FrequencyAllocation, chiplet: ChipletDesign, num_chips: int
) -> CrossChipCriteria:
    """Split off the criteria of ``allocation`` whose members lie on two chips."""
    qc = chiplet.num_qubits
    edges = allocation.directed_edges
    triples = allocation.control_triples
    edge_chips = edges // qc
    triple_chips = triples // qc
    cross_edges = edges[edge_chips[:, 0] != edge_chips[:, 1]]
    cross_triples = triples[(triple_chips != triple_chips[:, :1]).any(axis=1)]
    # The rest must be the chiplet's own criteria, once per slot.
    assert edges.shape[0] - cross_edges.shape[0] == num_chips * chiplet.allocation.num_edges
    assert (
        triples.shape[0] - cross_triples.shape[0]
        == num_chips * chiplet.allocation.control_triples.shape[0]
    )
    columns = np.union1d(cross_edges, cross_triples)
    return CrossChipCriteria(
        slots=columns // qc,
        qubits=columns % qc,
        allocation=FrequencyAllocation(
            spec=allocation.spec,
            labels=allocation.labels[columns],
            ideal_frequencies=allocation.ideal_frequencies[columns],
            anharmonicities=allocation.anharmonicities[columns],
            directed_edges=np.searchsorted(columns, cross_edges),
            control_triples=np.searchsorted(columns, cross_triples),
        ),
    )


class _LinkBuilder:
    """Internal helper that places inter-chip links for one MCM design."""

    def __init__(self, chiplet: ChipletDesign, grid_rows: int, grid_cols: int):
        self.chiplet = chiplet
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        self.labels = chiplet.labels
        # Labels of the targets each (local) control qubit already drives.
        self.base_target_labels = chiplet.control_target_labels()
        # Per chip: extra target labels gained through accepted links.
        self.extra_target_labels: dict[tuple[int, int], list[int]] = {}
        self.used_link_qubits: set[tuple[int, int]] = set()
        self.links: list[InterChipLink] = []

    def chip_index(self, row: int, col: int) -> int:
        return row * self.grid_cols + col

    def _pair_is_valid(
        self, chip_a: int, qa: int, chip_b: int, qb: int, allow_reuse: bool = False
    ) -> bool:
        la = int(self.labels[qa])
        lb = int(self.labels[qb])
        if la == lb:
            return False
        if not allow_reuse and (
            (chip_a, qa) in self.used_link_qubits or (chip_b, qb) in self.used_link_qubits
        ):
            return False
        # The higher-label endpoint is the control of the inter-chip gate.
        if la > lb:
            control_chip, control, target_label = chip_a, qa, lb
        else:
            control_chip, control, target_label = chip_b, qb, la
        existing = list(self.base_target_labels.get(control, []))
        existing.extend(self.extra_target_labels.get((control_chip, control), []))
        return target_label not in existing

    def _accept(self, chip_a: int, qa: int, chip_b: int, qb: int) -> None:
        qc = self.chiplet.num_qubits
        la = int(self.labels[qa])
        lb = int(self.labels[qb])
        if la > lb:
            control_chip, control, target_label = chip_a, qa, lb
        else:
            control_chip, control, target_label = chip_b, qb, la
        self.extra_target_labels.setdefault((control_chip, control), []).append(target_label)
        self.used_link_qubits.add((chip_a, qa))
        self.used_link_qubits.add((chip_b, qb))
        self.links.append(
            InterChipLink(
                chip_a=chip_a,
                local_a=qa,
                global_a=chip_a * qc + qa,
                chip_b=chip_b,
                local_b=qb,
                global_b=chip_b * qc + qb,
            )
        )

    def _place_links(
        self,
        chip_a: int,
        boundary_a: dict[int, int],
        chip_b: int,
        boundary_b: dict[int, int],
        stride: int,
        offsets: tuple[int, ...],
    ) -> int:
        accepted = 0
        keys = sorted(boundary_a)
        for position, key in enumerate(keys):
            if position % stride:
                continue
            qa = boundary_a[key]
            for offset in offsets:
                partner_key = key + offset
                if partner_key not in boundary_b:
                    continue
                qb = boundary_b[partner_key]
                if self._pair_is_valid(chip_a, qa, chip_b, qb):
                    self._accept(chip_a, qa, chip_b, qb)
                    accepted += 1
                    break
        if accepted == 0:
            accepted = self._place_fallback_link(chip_a, boundary_a, chip_b, boundary_b)
        return accepted

    def _place_fallback_link(
        self,
        chip_a: int,
        boundary_a: dict[int, int],
        chip_b: int,
        boundary_b: dict[int, int],
    ) -> int:
        """Guarantee at least one link between an adjacent chiplet pair.

        Small chiplets offer few boundary sites and the sparse pass can fail
        when its preferred sites were consumed by a neighbouring boundary.
        A first exhaustive scan keeps the one-link-per-qubit rule; if that
        also fails (tiny chiplets in dense grids), qubit reuse is allowed as
        a last resort — the frequency-label constraints are still enforced,
        so the ideal plan remains collision-free.
        """
        for allow_reuse in (False, True):
            for key in sorted(boundary_a):
                qa = boundary_a[key]
                for partner_key in sorted(boundary_b, key=lambda k: (abs(k - key), k)):
                    qb = boundary_b[partner_key]
                    if self._pair_is_valid(chip_a, qa, chip_b, qb, allow_reuse=allow_reuse):
                        self._accept(chip_a, qa, chip_b, qb)
                        return 1
        return 0

    def build_links(self) -> list[InterChipLink]:
        """Place all horizontal and vertical inter-chip links."""
        right = self.chiplet.boundary_qubits("right")
        left = self.chiplet.boundary_qubits("left")
        bottom = self.chiplet.boundary_qubits("bottom")
        top = self.chiplet.boundary_qubits("top")

        for row in range(self.grid_rows):
            for col in range(self.grid_cols - 1):
                self._place_links(
                    self.chip_index(row, col),
                    right,
                    self.chip_index(row, col + 1),
                    left,
                    stride=HORIZONTAL_LINK_STRIDE,
                    offsets=(0, 1, -1),
                )
        for row in range(self.grid_rows - 1):
            for col in range(self.grid_cols):
                self._place_links(
                    self.chip_index(row, col),
                    bottom,
                    self.chip_index(row + 1, col),
                    top,
                    stride=VERTICAL_LINK_STRIDE,
                    offsets=(0, 2, -2, 1),
                )
        return self.links


def _most_square_factorisation(num_chips: int) -> tuple[int, int]:
    """The ``k x m`` factorisation of ``num_chips`` with the smallest aspect."""
    best: tuple[int, int] | None = None
    for k in range(1, int(np.sqrt(num_chips)) + 1):
        if num_chips % k == 0:
            best = (k, num_chips // k)
    assert best is not None
    return best


def mcm_dimensions_for(
    chiplet_size: int, max_qubits: int = MAX_SYSTEM_QUBITS
) -> list[tuple[int, int]]:
    """MCM dimensions evaluated for one chiplet size (paper Section VII-B).

    One configuration per distinct chiplet count from 2 up to
    ``max_qubits // chiplet_size``, keeping the most square ``k x m``
    factorisation of each count.  Across the paper's nine chiplet sizes this
    rule produces the 102 evaluated MCMs.
    """
    if chiplet_size <= 0:
        raise ValueError("chiplet_size must be positive")
    dimensions = []
    for num_chips in range(2, max_qubits // chiplet_size + 1):
        dimensions.append(_most_square_factorisation(num_chips))
    return dimensions


def square_dimensions_for(
    chiplet_size: int, max_qubits: int = MAX_SYSTEM_QUBITS
) -> list[tuple[int, int]]:
    """Square (``n x n``) MCM dimensions within the qubit budget (Fig. 9)."""
    dimensions = []
    n = 2
    while n * n * chiplet_size <= max_qubits:
        dimensions.append((n, n))
        n += 1
    return dimensions
