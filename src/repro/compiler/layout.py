"""Initial-layout selection for benchmark compilation.

The paper compiles benchmarks sized at 80 % of the device, so the layout
pass has to pick a *connected region* of physical qubits and map virtual
qubits onto it.  :func:`choose_layout` picks one of two placements from
the circuit's shape:

* chain circuits (GHZ, 1D TFIM, the repetition code) are embedded along a
  long simple path of the coupling graph, so they route with zero SWAP
  overhead;
* every other circuit is placed on a densely-connected subgraph, with
  virtual qubits ordered by a BFS of their interaction graph so
  frequently interacting qubits land close together.

Placement memo
--------------
A layout is two independent halves: the *physical placement* (the qubits
the circuit occupies, in placement order) depends only on the device and
the circuit's width, while the *virtual order* depends only on the
circuit.  Application sweeps compile many circuits of one width onto one
device, and the placement half, above all a failing path search, is the
expensive one.  It is therefore memoised process-wide in a
:class:`repro.engine.cache.BoundedLRU` keyed on content, like the
routing cache: the coupling's qubit count and an edge digest, the width
and the branch (``"line"`` or ``"dense"``).  The ``"line"`` entry holds
the path, or, when the search failed, the dense placement the branch
falls back to, so a failed search is not repeated either.  Entries are
immutable tuples and every call builds a fresh :class:`Layout`, so
results are bit-identical to a cold search.  Traffic counts into
``repro_layout_cache_events_total{event}``, and
:func:`repro.compiler.routing.clear_routing_cache` empties the memo with
the routing cache.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.engine.cache import BoundedLRU
from repro.topology.coupling import CouplingMap

__all__ = [
    "LAYOUT_CACHE_MAXSIZE",
    "Layout",
    "choose_layout",
    "clear_layout_cache",
    "densest_connected_subgraph",
    "find_long_path",
    "is_chain_circuit",
]

#: Placements kept by the memo (each a tuple of at most a device's qubits).
LAYOUT_CACHE_MAXSIZE = 256


class Layout:
    """A bijective virtual -> physical qubit assignment."""

    def __init__(self, virtual_to_physical: dict[int, int]):
        self._v2p = dict(virtual_to_physical)
        self._p2v = {p: v for v, p in self._v2p.items()}
        if len(self._p2v) != len(self._v2p):
            raise ValueError("layout maps two virtual qubits to the same physical qubit")

    @property
    def size(self) -> int:
        """Number of mapped virtual qubits."""
        return len(self._v2p)

    def physical(self, virtual: int) -> int:
        """Physical qubit hosting ``virtual``."""
        return self._v2p[virtual]

    def virtual(self, physical: int) -> int | None:
        """Virtual qubit hosted on ``physical`` (``None`` when empty)."""
        return self._p2v.get(physical)

    def mapping(self) -> dict[int, int]:
        """Copy of the virtual -> physical mapping."""
        return dict(self._v2p)

    def swap_physical(self, p_a: int, p_b: int) -> None:
        """Exchange the virtual qubits held by two physical qubits."""
        v_a = self._p2v.get(p_a)
        v_b = self._p2v.get(p_b)
        if v_a is not None:
            self._v2p[v_a] = p_b
        if v_b is not None:
            self._v2p[v_b] = p_a
        if v_a is not None:
            self._p2v[p_b] = v_a
        elif p_b in self._p2v:
            del self._p2v[p_b]
        if v_b is not None:
            self._p2v[p_a] = v_b
        elif p_a in self._p2v:
            del self._p2v[p_a]

    def copy(self) -> "Layout":
        """Deep copy of the layout."""
        return Layout(self._v2p)


def is_chain_circuit(circuit: QuantumCircuit) -> bool:
    """True when the circuit's interaction graph is a simple path.

    Chain circuits (GHZ, 1D TFIM, the repetition code) can be embedded along
    a path of the device and routed without SWAPs.
    """
    adjacency = circuit.interaction_graph()
    active = {q for q, neighbours in adjacency.items() if neighbours}
    if not active:
        return True
    degrees = [len(adjacency[q]) for q in active]
    if any(d > 2 for d in degrees):
        return False
    endpoints = sum(1 for d in degrees if d == 1)
    if endpoints != 2:
        return False
    start = next(iter(active))
    reached = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in reached:
                reached.add(neighbour)
                stack.append(neighbour)
    return len(reached) == len(active)


def find_long_path(
    coupling: CouplingMap,
    length: int,
    attempts: int = 12,
    step_budget: int = 200_000,
) -> list[int] | None:
    """Backtracking search for a simple path visiting ``length`` qubits.

    Heavy-hex lattices contain long snaking paths, but a pure greedy walk
    tends to strand itself; a depth-first search with backtracking and a
    low-degree-first expansion order finds them quickly in practice.  The
    search is bounded by ``step_budget`` expansion steps per starting node,
    and returns ``None`` when no sufficiently long path was found.

    Search contract (pinned bit-for-bit by ``tests/test_layout_search.py``):

    * Qubits are ordered by ``(degree, index)``.  The first ``attempts`` of
      them are the starts, tried in that order, and every node expands its
      neighbours in that order too.
    * Each start gets ``step_budget`` steps, and every loop turn costs
      exactly one: extending the path, trying a neighbour that is already
      on the path, and backtracking out of an exhausted node alike.  So a
      path that needs more steps than the budget is not found, even where
      one exists.
    * ``length <= 0`` returns ``[]``.  ``length == 1`` returns the first
      start alone, without taking a step.  ``length`` above the qubit count
      returns ``None``.
    * ``attempts < 1`` or ``step_budget < 1`` raises :class:`ValueError`.

    Internally the qubits are relabelled ``0..n-1`` in ``(degree, index)``
    order, so each adjacency tuple is pre-sorted once per call, and a
    neighbour's rank is its relabelled value.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    if step_budget < 1:
        raise ValueError(f"step_budget must be at least 1, got {step_budget}")
    if length <= 0:
        return []
    n = coupling.num_qubits
    if length > n:
        return None
    neighbours = [coupling.neighbors(q) for q in range(n)]
    nodes = sorted(range(n), key=lambda q: (len(neighbours[q]), q))
    if length == 1:
        return [nodes[0]]
    rank = [0] * n
    for label, q in enumerate(nodes):
        rank[q] = label
    adj = [tuple(sorted(rank[m] for m in neighbours[q])) for q in nodes]

    for start in range(min(attempts, n)):
        path = [start]
        on_path = bytearray(n)
        on_path[start] = 1
        # The top frame (its neighbour tuple and cursor) lives in locals;
        # the frames below it are kept in two parallel lists.
        top, cursor = adj[start], 0
        nbrs: list[tuple[int, ...]] = []
        pos: list[int] = []
        for _ in range(step_budget):
            if cursor == len(top):
                on_path[path.pop()] = 0
                if not nbrs:
                    break
                top, cursor = nbrs.pop(), pos.pop()
                continue
            candidate = top[cursor]
            cursor += 1
            if on_path[candidate]:
                continue
            path.append(candidate)
            on_path[candidate] = 1
            if len(path) >= length:
                return [nodes[v] for v in path]
            nbrs.append(top)
            pos.append(cursor)
            top, cursor = adj[candidate], 0
    return None


def densest_connected_subgraph(coupling: CouplingMap, size: int) -> list[int]:
    """Greedy connected region of ``size`` qubits with many internal couplings.

    Starting from the highest-degree qubit (lowest index on ties),
    repeatedly add the frontier qubit with the most neighbours already
    inside the region, breaking ties by higher degree and then lower
    index.  When the frontier empties (the region filled its connected
    component), jump to the highest-degree qubit outside it, lowest index
    on ties.  Each frontier qubit's in-region neighbour count is kept up
    to date as the region grows.  Returns the region sorted.

    Raises :class:`ValueError` when ``size`` exceeds the qubit count.
    """
    n = coupling.num_qubits
    if size > n:
        raise ValueError("requested subgraph is larger than the graph")
    if size <= 0:
        return []
    rows = [coupling.neighbors(q) for q in range(n)]
    degree = [len(row) for row in rows]
    chosen = bytearray(n)
    # Frontier qubit -> number of its neighbours inside the region.
    inside: dict[int, int] = {}
    best = max(range(n), key=lambda q: (degree[q], -q))
    for added in range(1, size + 1):
        chosen[best] = 1
        inside.pop(best, None)
        for m in rows[best]:
            if not chosen[m]:
                inside[m] = inside.get(m, 0) + 1
        if added == size:
            break
        if inside:
            best = max(inside, key=lambda q: (inside[q], degree[q], -q))
        else:
            best = max((q for q in range(n) if not chosen[q]), key=degree.__getitem__)
    return [q for q in range(n) if chosen[q]]


def _region_order(coupling: CouplingMap, region: list[int]) -> list[int]:
    """Placement order of a sorted region: BFS from its best-connected qubit.

    The BFS starts at the qubit with the most neighbours inside the region
    (lowest index on ties) and visits neighbours in ascending index.
    Qubits the BFS cannot reach follow in ascending index.
    """
    in_region = bytearray(coupling.num_qubits)
    for q in region:
        in_region[q] = 1
    start = max(
        region, key=lambda q: sum(in_region[m] for m in coupling.neighbors(q))
    )
    order = [start]
    in_region[start] = 0
    for q in order:
        for m in coupling.neighbors(q):
            if in_region[m]:
                in_region[m] = 0
                order.append(m)
    order += [q for q in region if in_region[q]]
    return order


def _dense_placement(coupling: CouplingMap, width: int) -> tuple[int, ...]:
    return tuple(_region_order(coupling, densest_connected_subgraph(coupling, width)))


def _line_placement(coupling: CouplingMap, width: int) -> tuple[int, ...]:
    path = find_long_path(coupling, width)
    if path is None:
        return _dense_placement(coupling, width)
    return tuple(path)


#: Content-keyed physical placements; traffic counts into
#: ``repro_layout_cache_events_total{event}``.
_CACHE = BoundedLRU(
    LAYOUT_CACHE_MAXSIZE,
    "repro_layout_cache_events_total",
    "Layout placement memo traffic by outcome (hit, miss, eviction)",
)


def _coupling_digest(coupling: CouplingMap) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(coupling.num_qubits).tobytes())
    digest.update(np.asarray(coupling.edges, dtype=np.int64).tobytes())
    return digest.hexdigest()


def clear_layout_cache() -> None:
    """Drop every memoised placement and reset the memo's counters."""
    _CACHE.clear()


def _interaction_order(circuit: QuantumCircuit) -> list[int]:
    """Every virtual qubit, ordered by a BFS over the interaction graph."""
    adjacency = circuit.interaction_graph()
    order: list[int] = []
    seen: set[int] = set()
    pending = sorted(adjacency, key=lambda q: -len(adjacency[q]))
    for root in pending:
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        for node in queue:
            order.append(node)
            for neighbour in sorted(adjacency[node]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


def choose_layout(circuit: QuantumCircuit, coupling: CouplingMap) -> Layout:
    """Pick an initial layout for a circuit on a coupling map.

    Chain circuits (:func:`is_chain_circuit`) take the ``"line"`` branch,
    a long path from :func:`find_long_path` (the dense placement when the
    search fails); every other circuit takes the ``"dense"`` branch,
    :func:`densest_connected_subgraph` in BFS order.  The physical
    placement comes from the process-wide memo (see the module
    docstring); the circuit's virtual qubits are laid onto it in
    :func:`_interaction_order`.  Raises :class:`ValueError` when the
    circuit is wider than the device.
    """
    width = circuit.num_qubits
    if width > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {width} qubits but the device only has {coupling.num_qubits}"
        )
    branch = "line" if is_chain_circuit(circuit) else "dense"
    build = _line_placement if branch == "line" else _dense_placement
    placement = _CACHE.get_or_build(
        (coupling.num_qubits, _coupling_digest(coupling), width, branch),
        lambda: build(coupling, width),
    )
    return Layout(dict(zip(_interaction_order(circuit), placement)))
