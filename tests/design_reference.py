"""The historical design-construction helpers, kept verbatim as parity references.

Chiplet and MCM designs used to be built per site and per edge, with
networkx for every graph question: :func:`reference_build_heavy_hex`
looked dense qubits up in a ``(row, col)`` dict, :func:`reference_trim_to_count`
removed the highest-index non-articulation qubit found by
``nx.articulation_points`` once per step, the ``is_connected`` views
asked ``nx.is_connected`` of the cached ``graph()``, edges were oriented
one tuple at a time, control triples came from a dict of target lists,
plan labels from a per-site loop, and the ideal-plan check built a full
``find_collisions`` report.  ``repro.topology`` and ``repro.core`` now
do the same on adjacency rows and integer arrays, and must return the
same lattices, allocations and errors; ``test_design_parity.py``
compares them.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.collisions import find_collisions
from repro.core.frequencies import FrequencyAllocation, FrequencySpec, dense_label
from repro.topology.base import QubitSite
from repro.topology.heavy_hex import HeavyHexLattice, _candidate_shapes, bridge_columns


def reference_build_heavy_hex(rows: int, cols: int, name: str = "heavy-hex") -> HeavyHexLattice:
    """Construct an untrimmed heavy-hex lattice."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")

    sites: list[QubitSite] = []
    edges: list[tuple[int, int]] = []
    dense_index: dict[tuple[int, int], int] = {}

    counter = 0
    for row in range(rows):
        # Dense row qubits and their horizontal couplings.
        for col in range(cols):
            sites.append(QubitSite(counter, "dense", row, col))
            dense_index[(row, col)] = counter
            if col > 0:
                edges.append((counter - 1, counter))
            counter += 1
        # Bridge qubits between this dense row and the previous one.
        if row > 0:
            for col in bridge_columns(cols, row - 1):
                sites.append(QubitSite(counter, "bridge", row - 1, col))
                edges.append((dense_index[(row - 1, col)], counter))
                edges.append((counter, dense_index[(row, col)]))
                counter += 1

    lattice = HeavyHexLattice(rows=rows, cols=cols, sites=sites, edges=edges, name=name)
    return lattice


def reference_heavy_hex_by_qubit_count(num_qubits: int, name: str | None = None) -> HeavyHexLattice:
    """``heavy_hex_by_qubit_count`` on the reference build, trim and networkx checks."""
    if num_qubits < 2:
        raise ValueError("a heavy-hex lattice needs at least 2 qubits")

    label = name or f"heavy-hex-{num_qubits}"
    candidates = sorted(
        _candidate_shapes(num_qubits),
        key=lambda item: (item[2] + 2 * item[1] + 2 * item[0], item[0]),
    )
    for excess, rows, cols in candidates:
        lattice = reference_build_heavy_hex(rows, cols, name=label)
        if not reference_lattice_is_connected(lattice):
            continue
        if excess == 0:
            return lattice
        trimmed = reference_trim_to_count(lattice, num_qubits)
        if trimmed is not None and reference_lattice_is_connected(trimmed):
            return trimmed
    raise ValueError(f"could not construct a heavy-hex lattice with {num_qubits} qubits")


def reference_trim_to_count(lattice: HeavyHexLattice, target: int) -> HeavyHexLattice | None:
    """Remove non-articulation qubits (highest index first) down to ``target``.

    Returns ``None`` when the lattice cannot be trimmed to the target while
    staying connected.
    """
    graph = lattice.graph().copy()
    while graph.number_of_nodes() > target:
        articulation = set(nx.articulation_points(graph))
        candidates = [n for n in sorted(graph.nodes, reverse=True) if n not in articulation]
        if not candidates:
            return None
        graph.remove_node(candidates[0])

    keep = sorted(graph.nodes)
    relabel = {old: new for new, old in enumerate(keep)}
    sites = [
        QubitSite(relabel[s.index], s.kind, s.row, s.col)
        for s in lattice.sites
        if s.index in relabel
    ]
    edges = [
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
        for u, v in lattice.edges
        if u in relabel and v in relabel
    ]
    return HeavyHexLattice(
        rows=lattice.rows,
        cols=lattice.cols,
        sites=sites,
        edges=edges,
        name=lattice.name,
    )


def reference_lattice_is_connected(lattice) -> bool:
    """``LatticeOps.is_connected`` as it was: networkx on ``graph()``."""
    return nx.is_connected(lattice.graph())


def reference_coupling_is_connected(coupling) -> bool:
    """``CouplingMap.is_connected`` as it was: networkx on ``graph()``."""
    return nx.is_connected(coupling.graph())


def reference_orient_edges(
    edges: list[tuple[int, int]], labels: np.ndarray, ideal: np.ndarray
) -> np.ndarray:
    """Orient undirected couplings into (control, target) pairs.

    The control is the endpoint with the higher ideal frequency; ties (which
    only occur for inter-chip links joining same-label qubits) are broken by
    qubit index so the orientation is deterministic.
    """
    directed = []
    for u, v in edges:
        key_u = (ideal[u], labels[u], -u)
        key_v = (ideal[v], labels[v], -v)
        control, target = (u, v) if key_u > key_v else (v, u)
        directed.append((control, target))
    if not directed:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(directed, dtype=np.int64)


def reference_control_triples(directed_edges: np.ndarray) -> np.ndarray:
    """Enumerate (control, target_a, target_b) triples for shared controls."""
    triples: list[tuple[int, int, int]] = []
    by_control: dict[int, list[int]] = {}
    for control, target in directed_edges:
        by_control.setdefault(int(control), []).append(int(target))
    for control, targets in by_control.items():
        targets = sorted(targets)
        for i in range(len(targets)):
            for j in range(i + 1, len(targets)):
                triples.append((control, targets[i], targets[j]))
    if not triples:
        return np.zeros((0, 3), dtype=np.int64)
    return np.asarray(triples, dtype=np.int64)


def reference_allocation_from_labels(
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
    ideal = np.asarray([spec.frequency_for_label(int(l)) for l in labels], dtype=float)
    anharmonicity = np.full(labels.shape[0], spec.anharmonicity_ghz, dtype=float)
    directed = reference_orient_edges(edges, labels, ideal)
    triples = reference_control_triples(directed)
    return FrequencyAllocation(
        spec=spec,
        labels=labels,
        ideal_frequencies=ideal,
        anharmonicities=anharmonicity,
        directed_edges=directed,
        control_triples=triples,
    )


def reference_heavy_hex_labels(lattice: HeavyHexLattice, phase: int = 0) -> np.ndarray:
    """Frequency labels for a heavy-hex lattice.

    Dense qubits follow the period-4 pattern ``F1, F2, F0, F2`` (shifted by
    two columns on odd rows); bridge qubits always receive F2.  See
    :func:`dense_label` for the role of ``phase``.
    """
    labels = np.empty(lattice.num_qubits, dtype=np.int64)
    for site in lattice.sites:
        if site.is_bridge:
            labels[site.index] = 2
        else:
            labels[site.index] = dense_label(site.row, site.col, phase)
    return labels


def reference_square_labels(lattice, phase: int = 0) -> np.ndarray:
    """``SquareFiveFrequencyPlan.labels`` as it was."""
    labels = np.empty(lattice.num_qubits, dtype=np.int64)
    for site in lattice.sites:
        labels[site.index] = (site.row + 2 * site.col + phase) % 5
    return labels


def reference_ring_labels(lattice, phase: int = 0) -> np.ndarray:
    """``RingThreeFrequencyPlan.labels`` as it was."""
    labels = np.empty(lattice.num_qubits, dtype=np.int64)
    for site in lattice.sites:
        labels[site.index] = (site.col + phase) % 3
    return labels


def reference_control_target_labels(allocation: FrequencyAllocation) -> dict[int, list[int]]:
    """``ChipletDesign.control_target_labels`` as it was."""
    targets: dict[int, list[int]] = {}
    for control, target in allocation.directed_edges:
        targets.setdefault(int(control), []).append(int(allocation.labels[target]))
    return targets


def reference_check_ideal_plan(allocation: FrequencyAllocation, what: str) -> None:
    """The ideal-plan check both design builders ran: a full report."""
    report = find_collisions(allocation, allocation.ideal_frequencies)
    if not report.is_collision_free:
        raise ValueError(
            f"{what} has ideal-frequency collisions: {report.counts_by_type()}"
        )


def reference_coupling_edges(num_qubits: int, edges, link_edges=frozenset()):
    """``CouplingMap.__post_init__``'s per-edge normalisation as it was.

    Returns ``(edges, link_edges)`` or raises the same ``ValueError``.
    """
    normalised = []
    for u, v in edges:
        if u == v:
            raise ValueError("self-coupling is not allowed")
        if not (0 <= u < num_qubits and 0 <= v < num_qubits):
            raise ValueError(f"edge ({u}, {v}) references an unknown qubit")
        normalised.append((min(u, v), max(u, v)))
    edges = sorted(set(normalised))
    link_edges = frozenset((min(u, v), max(u, v)) for u, v in link_edges)
    unknown = link_edges - set(edges)
    if unknown:
        raise ValueError(f"link edges not present in coupling map: {sorted(unknown)}")
    return edges, link_edges
