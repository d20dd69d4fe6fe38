"""Initial-layout selection for benchmark compilation.

The paper compiles benchmarks sized at 80 % of the device, so the layout
pass has to pick a *connected region* of physical qubits and map virtual
qubits onto it.  Three strategies are provided:

* ``"line"`` — embed the circuit along a long simple path of the coupling
  graph; ideal for chain-structured circuits (GHZ, TFIM) which then route
  with zero SWAP overhead.
* ``"dense"`` — place the circuit on a densely-connected subgraph, ordering
  virtual qubits by a BFS of their interaction graph so frequently
  interacting qubits land close together.
* ``"noise"`` — like ``"dense"`` but seeded at the physical qubit whose
  incident couplings have the lowest error (requires a device error map).
"""

from __future__ import annotations

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.engine.registry import unknown_name
from repro.topology.coupling import CouplingMap
from repro.topology.metrics import densest_connected_subgraph

__all__ = [
    "LAYOUT_METHODS",
    "Layout",
    "check_layout_method",
    "choose_layout",
    "find_long_path",
    "is_chain_circuit",
]

#: The methods :func:`choose_layout` accepts.
LAYOUT_METHODS = ("auto", "line", "dense", "noise")


def check_layout_method(method: str) -> None:
    """Raise the unknown-name ``KeyError`` unless ``method`` is a layout method."""
    if method not in LAYOUT_METHODS:
        raise unknown_name("layout method", method, LAYOUT_METHODS)


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
    graph = nx.Graph(
        (a, b) for a, neighbours in adjacency.items() for b in neighbours if a < b
    )
    return nx.is_connected(graph)


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


def _interaction_order(circuit: QuantumCircuit) -> list[int]:
    """Virtual qubits ordered by a BFS over the interaction graph."""
    adjacency = circuit.interaction_graph()
    order: list[int] = []
    seen: set[int] = set()
    pending = sorted(adjacency, key=lambda q: -len(adjacency[q]))
    for root in pending:
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        while queue:
            node = queue.pop(0)
            order.append(node)
            for neighbour in sorted(adjacency[node]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


def choose_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    method: str = "auto",
    edge_errors: dict[tuple[int, int], float] | None = None,
) -> Layout:
    """Pick an initial layout for a circuit on a coupling map.

    Parameters
    ----------
    circuit:
        Circuit to place (its width must not exceed the device size).
    coupling:
        Device connectivity.
    method:
        One of :data:`LAYOUT_METHODS` (anything else raises ``KeyError``).
        ``"auto"`` selects ``"line"`` for chain circuits and ``"dense"``
        otherwise.
    edge_errors:
        Per-coupling error map used by the ``"noise"`` strategy.
    """
    check_layout_method(method)
    width = circuit.num_qubits
    if width > coupling.num_qubits:
        raise ValueError(
            f"circuit needs {width} qubits but the device only has {coupling.num_qubits}"
        )
    if method == "auto":
        method = "line" if is_chain_circuit(circuit) else "dense"

    if method == "line":
        path = find_long_path(coupling, width)
        if path is not None:
            order = _interaction_order(circuit)
            order += [q for q in range(width) if q not in set(order)]
            return Layout({virtual: path[i] for i, virtual in enumerate(order)})
        method = "dense"

    graph = coupling.graph()
    seed = None
    if method == "noise":
        if edge_errors:
            incident: dict[int, list[float]] = {}
            for (u, v), error in edge_errors.items():
                incident.setdefault(u, []).append(error)
                incident.setdefault(v, []).append(error)
            seed = min(
                incident,
                key=lambda q: sum(incident[q]) / len(incident[q]) - 0.001 * len(incident[q]),
            )

    region = densest_connected_subgraph(graph, width, seed=seed)
    sub = graph.subgraph(region)
    # Physical placement order: BFS from the highest-degree node of the region.
    start = max(region, key=lambda n: sub.degree[n])
    physical_order = list(nx.bfs_tree(sub, start))
    physical_order += [n for n in region if n not in set(physical_order)]
    virtual_order = _interaction_order(circuit)
    virtual_order += [q for q in range(width) if q not in set(virtual_order)]
    return Layout(
        {virtual: physical_order[i] for i, virtual in enumerate(virtual_order)}
    )
