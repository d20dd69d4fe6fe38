"""Frequency-plan strategies for fixed-frequency transmon lattices.

The paper (Section III-B) avoids frequency collisions at design time by
assigning every qubit one of a small set of ideal frequencies
``F0 < F1 < ... < F(k-1)`` laid out so that the Table I criteria cannot
fire on an ideally fabricated device.  How many frequencies are needed,
and how the labels tile the device, depends on the topology:

* **heavy-hex** (the paper's choice) — three frequencies; the highest,
  ``F2``, goes only to the degree <= 2 bridge qubits, which act as the
  control of every Cross-Resonance interaction
  (:class:`HeavyHexThreeFrequencyPlan`);
* **square grid** — five frequencies in the classic distance-2 colouring
  ``(row + 2*col) mod 5``, so every closed neighbourhood carries five
  distinct labels (:class:`SquareFiveFrequencyPlan`);
* **ring / chain** — three frequencies repeating with period three along
  the line (:class:`RingThreeFrequencyPlan`).

Each strategy is a :class:`FrequencyPlan`: a picklable object that maps
a :class:`repro.topology.base.Lattice` to per-qubit labels and builds a
:class:`FrequencyAllocation` — per-qubit ideal frequencies and
anharmonicities, a directed control->target view of every coupling, and
the (control, target, target) triples required by the Table I criteria
of types 5-7.  Plans are registered per topology in
:data:`repro.core.architecture.ARCHITECTURES`.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.topology.base import Lattice
from repro.topology.heavy_hex import HeavyHexLattice

__all__ = [
    "FrequencySpec",
    "FrequencyAllocation",
    "FrequencyPlan",
    "HeavyHexThreeFrequencyPlan",
    "SquareFiveFrequencyPlan",
    "RingThreeFrequencyPlan",
    "allocation_from_labels",
    "heavy_hex_labels",
    "dense_label",
    "DEFAULT_ANHARMONICITY_GHZ",
    "DEFAULT_BASE_FREQUENCY_GHZ",
    "DEFAULT_STEP_GHZ",
]

#: Transmon anharmonicity used throughout the paper (GHz).
DEFAULT_ANHARMONICITY_GHZ = -0.330

#: Lowest ideal frequency F0 (GHz); the paper fixes it at ~5 GHz.
DEFAULT_BASE_FREQUENCY_GHZ = 5.0

#: Ideal detuning between consecutive frequencies; 0.06 GHz maximises yield
#: in the paper's Fig. 4 sweep.
DEFAULT_STEP_GHZ = 0.06


@dataclass(frozen=True)
class FrequencySpec:
    """Design targets for an equally spaced frequency pattern.

    Attributes
    ----------
    base_ghz:
        Ideal frequency of the ``F0`` qubits.
    step_ghz:
        Detuning between consecutive ideal frequencies, so
        ``F(k) = F0 + k * step``.
    anharmonicity_ghz:
        Transmon anharmonicity (negative).
    num_frequencies:
        Number of distinct ideal frequencies the plan uses (three for
        the paper's heavy-hex pattern, five for the square lattice).
    """

    base_ghz: float = DEFAULT_BASE_FREQUENCY_GHZ
    step_ghz: float = DEFAULT_STEP_GHZ
    anharmonicity_ghz: float = DEFAULT_ANHARMONICITY_GHZ
    num_frequencies: int = 3

    def frequency_for_label(self, label: int) -> float:
        """Ideal frequency (GHz) of a qubit with a valid label."""
        if not 0 <= label < self.num_frequencies:
            raise ValueError(f"unknown frequency label {label}")
        return self.base_ghz + label * self.step_ghz

    @property
    def frequencies(self) -> tuple[float, ...]:
        """The ideal frequencies ``(F0, F1, ..., F(k-1))``."""
        return tuple(
            self.frequency_for_label(label) for label in range(self.num_frequencies)
        )


@dataclass
class FrequencyAllocation:
    """Frequency plan for one device topology.

    Attributes
    ----------
    spec:
        The :class:`FrequencySpec` this allocation was built from.
    labels:
        Per-qubit frequency label (``0 .. num_frequencies - 1``) as an
        ``int`` array.
    ideal_frequencies:
        Per-qubit ideal frequency in GHz.
    anharmonicities:
        Per-qubit anharmonicity in GHz.
    directed_edges:
        Every coupling expressed as a ``(control, target)`` pair.  Following
        the paper, the endpoint with the larger ideal frequency acts as the
        control of the Cross-Resonance gate.
    control_triples:
        ``(control, target_a, target_b)`` for every pair of targets that
        shares a control qubit; used by collision criteria 5-7.
    """

    spec: FrequencySpec
    labels: np.ndarray
    ideal_frequencies: np.ndarray
    anharmonicities: np.ndarray
    directed_edges: np.ndarray
    control_triples: np.ndarray

    @property
    def num_qubits(self) -> int:
        """Number of qubits covered by the allocation."""
        return int(self.labels.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of couplings covered by the allocation."""
        return int(self.directed_edges.shape[0])

    def label_counts(self) -> dict[int, int]:
        """Map frequency label -> number of qubits carrying it."""
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def _orient_edges(edges, labels: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Orient undirected couplings into (control, target) pairs.

    The control is the endpoint with the higher ideal frequency; ties (which
    only occur for inter-chip links joining same-label qubits) are broken by
    label, then by the lower qubit index, so the orientation is
    deterministic: ``u`` controls when ``(ideal[u], labels[u], -u)`` is
    the larger key.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    iu, iv, lu, lv = ideal[u], ideal[v], labels[u], labels[v]
    u_controls = (iu > iv) | (
        (iu == iv) & ((lu > lv) | ((lu == lv) & (u < v)))
    )
    return np.where(u_controls[:, np.newaxis], pairs, pairs[:, ::-1])


def _control_triples(directed_edges: np.ndarray) -> np.ndarray:
    """Enumerate (control, target_a, target_b) triples for shared controls.

    Controls appear in the order of their first directed edge; each
    control's targets are sorted and paired ``i < j`` row-major.
    """
    controls, targets = directed_edges[:, 0], directed_edges[:, 1]
    _, first, group = np.unique(controls, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    group_rank = rank[group.reshape(-1)]
    # Edges sorted by control (first-appearance order), then by target.
    order = np.lexsort((targets, group_rank))
    sizes = np.bincount(group_rank, minlength=first.size)
    starts = np.cumsum(sizes) - sizes
    blocks, block_ranks = [], []
    for size in np.unique(sizes[sizes > 1]).tolist():
        ranks = np.flatnonzero(sizes == size)
        i, j = np.triu_indices(size, 1)
        a = order[starts[ranks][:, np.newaxis] + i]
        b = order[starts[ranks][:, np.newaxis] + j]
        block = np.empty(a.shape + (3,), dtype=np.int64)
        block[..., 0], block[..., 1], block[..., 2] = controls[a], targets[a], targets[b]
        blocks.append(block.reshape(-1, 3))
        block_ranks.append(np.repeat(ranks, i.size))
    if not blocks:
        return np.zeros((0, 3), dtype=np.int64)
    triples = np.concatenate(blocks)
    return triples[np.argsort(np.concatenate(block_ranks), kind="stable")]


#: Period-4 label pattern along dense rows: F1, F2, F0, F2, F1, F2, F0, ...
#: Bridge qubits always carry F2.  The pattern guarantees that
#: (a) nearest neighbours never share a label,
#: (b) every F2 qubit has degree <= 2 and its neighbours carry different
#:     labels (one F0, one F1), and
#: (c) only F2 qubits ever act as the control of a Cross-Resonance gate,
#: exactly as required by the paper's ideal heavy-hex assignment.
_DENSE_ROW_PATTERN = (1, 2, 0, 2)


def dense_label(row: int, col: int, phase: int = 0) -> int:
    """Frequency label of a heavy-hex dense-row qubit at ``(row, col)``.

    Odd dense rows are shifted by two columns so that bridge qubits (which
    sit at columns 0/2 modulo 4) always connect an F0 qubit to an F1 qubit.
    The ``phase`` offset (in columns) lets MCM assembly shift the pattern of
    individual chiplets when stitching them together.
    """
    return _DENSE_ROW_PATTERN[(col + 2 * (row % 2) + phase) % 4]


def heavy_hex_labels(lattice: HeavyHexLattice, phase: int = 0) -> np.ndarray:
    """Frequency labels for a heavy-hex lattice.

    Dense qubits follow the period-4 pattern ``F1, F2, F0, F2`` (shifted by
    two columns on odd rows); bridge qubits always receive F2.  See
    :func:`dense_label` for the role of ``phase``.
    """
    index, row, col, bridge = _site_arrays(lattice)
    dense = np.asarray(_DENSE_ROW_PATTERN)[(col + 2 * (row % 2) + phase) % 4]
    labels = np.empty(lattice.num_qubits, dtype=np.int64)
    labels[index] = np.where(bridge, 2, dense)
    return labels


def _site_arrays(lattice: Lattice) -> tuple[np.ndarray, ...]:
    """``(index, row, col, is_bridge)`` of every site, as arrays."""
    sites = lattice.sites
    return (
        np.fromiter((s.index for s in sites), np.int64, len(sites)),
        np.fromiter((s.row for s in sites), np.int64, len(sites)),
        np.fromiter((s.col for s in sites), np.int64, len(sites)),
        np.fromiter((s.kind == "bridge" for s in sites), bool, len(sites)),
    )


def allocation_from_labels(
    labels: np.ndarray,
    edges: list[tuple[int, int]],
    spec: FrequencySpec | None = None,
) -> FrequencyAllocation:
    """Build a :class:`FrequencyAllocation` from explicit labels and couplings."""
    spec = spec or FrequencySpec()
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a one-dimensional array")
    if labels.size and (labels.min() < 0 or labels.max() >= spec.num_frequencies):
        raise ValueError(
            f"labels must lie in [0, {spec.num_frequencies - 1}] "
            f"for a {spec.num_frequencies}-frequency spec"
        )
    ideal = np.asarray(spec.frequencies, dtype=float)[labels]
    anharmonicity = np.full(labels.shape[0], spec.anharmonicity_ghz, dtype=float)
    directed = _orient_edges(edges, labels, ideal)
    triples = _control_triples(directed)
    return FrequencyAllocation(
        spec=spec,
        labels=labels,
        ideal_frequencies=ideal,
        anharmonicities=anharmonicity,
        directed_edges=directed,
        control_triples=triples,
    )


class FrequencyPlan(ABC):
    """Strategy interface: how a topology's qubits get frequency labels.

    A plan owns three decisions:

    1. **labelling** — :meth:`labels` maps every lattice site to one of
       ``num_frequencies`` labels such that an *ideally* fabricated
       device violates none of the Table I criteria;
    2. **orientation** — implicitly, via the shared higher-frequency-is-
       control rule applied to the plan's labels; and
    3. **triples** — the (control, target, target) sets of criteria 5-7,
       derived from that orientation.

    Subclasses are small frozen dataclasses, so plans are picklable
    (engine workers), hashable and stable under the engine's
    content-addressed cache keys.
    """

    #: Identifier of the plan (used in logs and registry descriptions).
    name: str = "plan"

    #: Number of distinct ideal frequencies the plan hands out.
    num_frequencies: int = 3

    @abstractmethod
    def labels(self, lattice: Lattice) -> np.ndarray:
        """Per-qubit frequency labels (``0 .. num_frequencies - 1``)."""

    def spec(
        self,
        step_ghz: float | None = None,
        base_ghz: float | None = None,
        anharmonicity_ghz: float | None = None,
    ) -> FrequencySpec:
        """A :class:`FrequencySpec` sized for this plan's label count."""
        return FrequencySpec(
            base_ghz=DEFAULT_BASE_FREQUENCY_GHZ if base_ghz is None else base_ghz,
            step_ghz=DEFAULT_STEP_GHZ if step_ghz is None else step_ghz,
            anharmonicity_ghz=(
                DEFAULT_ANHARMONICITY_GHZ
                if anharmonicity_ghz is None
                else anharmonicity_ghz
            ),
            num_frequencies=self.num_frequencies,
        )

    def coerce_spec(self, spec: FrequencySpec | None) -> FrequencySpec:
        """Resize a caller-provided spec to this plan's label count.

        Callers that only care about physics parameters (step, base,
        anharmonicity) can hand any spec to any plan; a spec already
        sized correctly — every existing heavy-hex call site — passes
        through untouched.
        """
        if spec is None:
            return self.spec()
        if spec.num_frequencies != self.num_frequencies:
            spec = dataclasses.replace(spec, num_frequencies=self.num_frequencies)
        return spec

    def allocate(
        self, lattice: Lattice, spec: FrequencySpec | None = None
    ) -> FrequencyAllocation:
        """Label a lattice and build its :class:`FrequencyAllocation`."""
        return allocation_from_labels(
            self.labels(lattice), lattice.edges, spec=self.coerce_spec(spec)
        )


@dataclass(frozen=True)
class HeavyHexThreeFrequencyPlan(FrequencyPlan):
    """The paper's three-frequency heavy-hex pattern.

    Dense rows carry the period-4 pattern ``F1, F2, F0, F2`` (odd rows
    shifted by two columns); bridge qubits always carry F2, so only
    degree <= 2 qubits ever act as Cross-Resonance controls.

    Attributes
    ----------
    phase:
        Column offset of the dense-row pattern, letting MCM assembly
        shift individual chiplets when stitching them together.
    """

    phase: int = 0

    name = "heavy-hex-3f"
    num_frequencies = 3

    def labels(self, lattice: Lattice) -> np.ndarray:
        return heavy_hex_labels(lattice, phase=self.phase)


@dataclass(frozen=True)
class SquareFiveFrequencyPlan(FrequencyPlan):
    """Five-frequency distance-2 colouring of the square lattice.

    ``label(row, col) = (row + 2*col + phase) mod 5`` gives every site a
    label distinct from everything within two hops — all four neighbours
    *and* all pairs of targets sharing a control differ, which is what
    keeps types 1 and 5 off an ideal device.  The remaining criteria
    stay clear because label differences span at most four steps
    (<= 0.28 GHz at the sweep's largest step) while the type 2/3/6/7
    conditions sit near half or full anharmonicity (0.165 / 0.330 GHz).
    """

    phase: int = 0

    name = "square-5f"
    num_frequencies = 5

    def labels(self, lattice: Lattice) -> np.ndarray:
        index, row, col, _ = _site_arrays(lattice)
        labels = np.empty(lattice.num_qubits, dtype=np.int64)
        labels[index] = (row + 2 * col + self.phase) % 5
        return labels


@dataclass(frozen=True)
class RingThreeFrequencyPlan(FrequencyPlan):
    """Period-3 three-frequency pattern along a chain.

    ``label(i) = (i + phase) mod 3``: neighbours always differ, and the
    two targets of any shared control (the local-maximum F2 qubits) are
    one F0 and one F1.  Seam-free closed rings additionally require the
    qubit count to be a multiple of three — the reason the registered
    ``ring`` architecture builds open chains (see
    :mod:`repro.topology.ring`).
    """

    phase: int = 0

    name = "ring-3f"
    num_frequencies = 3

    def labels(self, lattice: Lattice) -> np.ndarray:
        index, _, col, _ = _site_arrays(lattice)
        labels = np.empty(lattice.num_qubits, dtype=np.int64)
        labels[index] = (col + self.phase) % 3
        return labels

