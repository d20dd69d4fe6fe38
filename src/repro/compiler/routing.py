"""SWAP-insertion routing onto restricted connectivity.

The router walks the circuit's gate columns in program order and emits
integer columns (no per-gate ``Gate`` objects).  Single-qubit gates are
emitted directly on the physical qubit currently hosting their virtual
qubit.  For a two-qubit gate whose operands are not adjacent, SWAPs are
inserted along a shortest path between the two hosts, moving from the
cheaper end and stopping one hop short so the final CX executes on a real
coupling.  SWAP selection uses the pre-computed all-pairs distance matrix
(as nested lists, :meth:`CouplingMap.distance_rows`), so routing a
circuit with tens of thousands of gates onto a 500-qubit MCM stays fast.

This is intentionally a greedy router (in the spirit of the lookahead-free
baseline of SABRE); the paper's conclusions depend on relative gate counts
between architectures compiled identically, not on squeezing out the last
few SWAPs.

:func:`route_circuit_noise_aware` is the error-weighted variant: instead
of hop-shortest SWAP chains it walks weighted shortest paths where each
coupling costs ``-log10(1 - e(edge))`` — the log-fidelity the gates
executed on it will pay — so SWAP traffic detours around the worst
couplings of a fabricated device.  With no error map it degrades to the
hop metric.

Routing cache
-------------
The weighted shortest-path structure is the noise-aware router's only
expensive input, and application sweeps compile the *same* device dozens
of times (every benchmark x width x circuit seed shares it).  It is
therefore memoised process-wide in a
:class:`repro.engine.cache.BoundedLRU` keyed on content — the qubit
count, the coupling's edge list and the resolved per-edge costs — so any
two calls that would route over identical weights share one
:class:`RoutingWeights`, no matter how many distinct ``Device`` objects
(or pickled copies in an engine worker) carry that content.

Within one :class:`RoutingWeights`, Dijkstra trees are computed *lazily
per source*: scipy's Dijkstra is per-source independent, so computing
only the rows the router actually queries is bit-identical to the
historical eager all-pairs run while letting a small circuit on a big
MCM pay for a handful of sources instead of all of them.  Routes are
bit-identical either way — same weights, same tie-breaks.

``edge_errors`` content is hashed into the key, so recalibrating or
scaling a device's error map can never replay a stale tree — it simply
misses into a fresh entry (see ``tests/test_routing_cache.py``).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout, clear_layout_cache
from repro.engine.cache import BoundedLRU
from repro.topology.coupling import CouplingMap

__all__ = [
    "RoutedCircuit",
    "RoutingWeights",
    "route_circuit",
    "route_circuit_noise_aware",
    "routing_weights",
    "routing_cache_stats",
    "clear_routing_cache",
    "ROUTING_CACHE_MAXSIZE",
]

#: Weight assigned to a fully-depolarising coupling (error >= 1): large
#: enough that any finite-fidelity detour wins, finite so a graph whose
#: only route crosses a dead edge still routes (the fidelity product
#: then reports -inf, as it should).
DEAD_EDGE_WEIGHT = 1.0e9

#: Additive per-hop cost so that between equal-error alternatives the
#: shorter SWAP chain wins deterministically, and near-zero-error regions
#: are not traversed "for free" by absurdly long chains.
HOP_PENALTY = 1.0e-9

#: Distinct (coupling, error-map) weight structures kept alive at once.
#: Application sweeps touch a handful of devices per worker; 64 covers a
#: full appsweep ensemble with room to spare while bounding memory.
ROUTING_CACHE_MAXSIZE = 64


@dataclass
class RoutedCircuit:
    """Result of routing a circuit onto a coupling map.

    Attributes
    ----------
    circuit:
        Physical circuit (gate columns address physical qubits; ``swap``
        gates are still explicit and are expanded later).
    initial_layout, final_layout:
        Virtual -> physical assignment before and after execution.
    num_swaps:
        Number of SWAPs inserted.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0

    @property
    def two_qubit_edges(self) -> list[tuple[int, int]]:
        """The ``(low, high)`` coupling of every two-qubit gate, in order.

        SWAPs contribute their edge once here; after expansion into 3 CX
        the fidelity analysis counts it three times.
        """
        return list(map(tuple, self.circuit.edge_array().tolist()))


def _route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    swap_chain: Callable[[int, int], list[tuple[int, int]]],
) -> RoutedCircuit:
    """The routing loop both strategies share, over integer columns.

    One-qubit gates follow their virtual qubit's host.  For a two-qubit
    gate, ``swap_chain(p_a, p_b)`` names the SWAPs (``(mover, step)``
    pairs) that bring the operands' hosts onto one coupling; they are
    emitted and applied to the layout's two dicts before the gate itself.
    """
    if circuit.q2:
        name = circuit.names[min(circuit.q2)]
        raise ValueError(
            f"gate {name!r} must be decomposed to the CX basis before routing"
        )
    working = layout.copy()
    v2p, p2v = working._v2p, working._p2v
    names: list[str] = []
    q0: list[int] = []
    q1: list[int] = []
    params: list[tuple[float, ...]] = []
    num_swaps = 0

    for name, virtual_a, virtual_b, gate_params in zip(
        circuit.names, circuit.q0, circuit.q1, circuit.params
    ):
        if virtual_b < 0:
            names.append(name)
            q0.append(v2p[virtual_a])
            q1.append(-1)
            params.append(gate_params)
            continue
        for mover, step in swap_chain(v2p[virtual_a], v2p[virtual_b]):
            names.append("swap")
            q0.append(mover)
            q1.append(step)
            params.append(())
            num_swaps += 1
            # Layout.swap_physical, inlined: ``mover`` always hosts an operand.
            moved = p2v[mover]
            other = p2v.get(step)
            v2p[moved] = step
            p2v[step] = moved
            if other is None:
                del p2v[mover]
            else:
                v2p[other] = mover
                p2v[mover] = other
        names.append(name)
        q0.append(v2p[virtual_a])
        q1.append(v2p[virtual_b])
        params.append(gate_params)

    return RoutedCircuit(
        circuit=QuantumCircuit(coupling.num_qubits, circuit.name, names, q0, q1, params),
        initial_layout=layout.copy(),
        final_layout=working,
        num_swaps=num_swaps,
    )


def route_circuit(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
) -> RoutedCircuit:
    """Route a (CX-basis) circuit onto the coupling map.

    Parameters
    ----------
    circuit:
        Logical circuit containing only one- and two-qubit gates.
    coupling:
        Physical connectivity.
    layout:
        Initial virtual -> physical placement (will not be mutated).
    """
    distance = coupling.distance_rows()
    unreachable = coupling.num_qubits
    neighbors = coupling.neighbors

    def swap_chain(p_a: int, p_b: int) -> list[tuple[int, int]]:
        # Bring the two operands adjacent by swapping along a shortest
        # path.  Both endpoints are considered as the "mover" and the swap
        # that shrinks the remaining distance the most (ties broken
        # towards the lower qubit index: neighbour lists are ascending,
        # and only a strictly closer neighbour replaces the best) is
        # applied.
        chain = []
        while distance[p_a][p_b] > 1:
            if distance[p_a][p_b] >= unreachable:
                raise ValueError(
                    f"qubits {p_a} and {p_b} are not connected in the coupling map"
                )
            row = distance[p_b]
            best_a, gap_a = -1, unreachable
            for candidate in neighbors(p_a):
                if row[candidate] < gap_a:
                    best_a, gap_a = candidate, row[candidate]
            row = distance[p_a]
            best_b, gap_b = -1, unreachable
            for candidate in neighbors(p_b):
                if row[candidate] < gap_b:
                    best_b, gap_b = candidate, row[candidate]
            if gap_a <= gap_b:
                chain.append((p_a, best_a))
                p_a = best_a
            else:
                chain.append((p_b, best_b))
                p_b = best_b
        return chain

    return _route(circuit, coupling, layout, swap_chain)


def _edge_costs(coupling: CouplingMap, edge_errors):
    """Resolve the per-coupling routing costs for the error metric.

    Returns ``(edge_u, edge_v, costs)`` aligned arrays — one entry per
    coupling, endpoints normalised ``u < v``.  ``edge_errors`` is a
    :class:`~repro.device.device.Device` — whose cached
    ``edge_error_arrays()`` feed one vectorised cost computation — or a
    raw mapping, walked per edge (couplings missing from the map cost
    only the hop penalty: they are treated as ideal).
    """
    from repro.device.device import Device

    n = coupling.num_qubits
    is_device = isinstance(edge_errors, Device)
    # The array fast path requires the error map to be exactly the
    # coupling's edge set.  Device.__post_init__ already forbids missing
    # couplings, so the only way out is a map carrying *extra* edges —
    # those must not become routable, so such devices (and raw
    # mappings) take the per-edge walk over coupling.edges instead.
    if is_device and len(edge_errors.edge_errors) == coupling.num_edges:
        keys, errors = edge_errors.edge_error_arrays()
        edge_u = keys // n
        edge_v = keys % n
        safe = np.clip(1.0 - errors, 1e-300, None)
        costs = HOP_PENALTY - np.log10(safe)
        costs[errors >= 1.0] = DEAD_EDGE_WEIGHT
    else:
        if is_device:
            edge_errors = edge_errors.edge_errors
        pairs = []
        cost_list = []
        for u, v in coupling.edges:
            error = float(edge_errors.get((u, v), edge_errors.get((v, u), 0.0)))
            if error < 1.0:
                cost_list.append(HOP_PENALTY - np.log10(1.0 - error))
            else:
                cost_list.append(DEAD_EDGE_WEIGHT)
            pairs.append((u, v))
        edge_u = np.asarray([u for u, _ in pairs], dtype=np.int64)
        edge_v = np.asarray([v for _, v in pairs], dtype=np.int64)
        costs = np.asarray(cost_list)

    return edge_u, edge_v, costs


class RoutingWeights:
    """Error-weighted shortest-path structure with lazy per-source trees.

    Wraps the sparse symmetric cost matrix of one (coupling, error-map)
    pair.  Dijkstra predecessor rows are computed on first query per
    source and memoised — scipy's Dijkstra treats sources independently,
    so a lazily-filled row is bit-identical to the same row of the
    historical eager all-pairs run (the parity suite pins this).  Endpoint
    costs for the router's mover tie-break come from a per-edge dict
    (``_cost``, keyed ``(u, v)`` with ``u < v``) instead of the old dense
    ``(n, n)`` weight matrix, dropping the O(n^2) allocation entirely.

    Instances are shared through the module cache and may be queried
    from several engine worker threads at once; row computation is
    double-checked under a lock.
    """

    def __init__(
        self,
        num_qubits: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        costs: np.ndarray,
    ):
        # scipy.sparse is imported where a matrix is first built, so that
        # processes which never route do not load it.
        from scipy.sparse import csr_matrix

        self.num_qubits = num_qubits
        self._matrix = csr_matrix(
            (
                np.concatenate([costs, costs]),
                (np.concatenate([edge_u, edge_v]), np.concatenate([edge_v, edge_u])),
            ),
            shape=(num_qubits, num_qubits),
        )
        self._cost = {
            (int(u), int(v)): float(c) for u, v, c in zip(edge_u, edge_v, costs)
        }
        self._pred: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def sources_computed(self) -> int:
        """Number of source rows whose Dijkstra tree has been built."""
        return len(self._pred)

    def predecessor_row(self, source: int) -> np.ndarray:
        """The Dijkstra predecessor row for one source, computed lazily."""
        row = self._pred.get(source)
        if row is None:
            with self._lock:
                row = self._pred.get(source)
                if row is None:
                    from scipy.sparse.csgraph import shortest_path

                    _, pred = shortest_path(
                        self._matrix,
                        method="D",
                        directed=False,
                        indices=[source],
                        return_predecessors=True,
                    )
                    row = pred[0]
                    self._pred[source] = row
        return row


#: Content-keyed weight structures; traffic counts into
#: ``repro_routing_cache_events_total{event}``.
_CACHE = BoundedLRU(
    ROUTING_CACHE_MAXSIZE,
    "repro_routing_cache_events_total",
    "Routing weights cache traffic by outcome (hit, miss, eviction)",
)


def _weights_key(num_qubits: int, edge_u, edge_v, costs) -> tuple:
    """Content digest of one resolved weight structure.

    Keyed on the *resolved* costs (not the raw error map), so two error
    maps that induce identical weights share one entry — and any change
    to a device's edge errors changes the digest and misses.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(num_qubits).tobytes())
    digest.update(np.ascontiguousarray(edge_u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(edge_v, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(costs, dtype=np.float64).tobytes())
    return (num_qubits, digest.hexdigest())


def routing_weights(coupling: CouplingMap, edge_errors) -> RoutingWeights:
    """The (cached) weight structure for one coupling + error map.

    Resolving the per-edge costs and hashing them is O(edges) — cheap
    against even a single-source Dijkstra — so every call pays the
    digest and repeated compiles of the same device share the trees.
    """
    edge_u, edge_v, costs = _edge_costs(coupling, edge_errors)
    key = _weights_key(coupling.num_qubits, edge_u, edge_v, costs)
    return _CACHE.get_or_build(
        key, lambda: RoutingWeights(coupling.num_qubits, edge_u, edge_v, costs)
    )


def routing_cache_stats() -> dict:
    """Counters + occupancy of the process-wide routing cache."""
    stats = _CACHE.stats()
    return {
        **{key: stats[key] for key in ("hits", "misses", "evictions", "entries")},
        "sources_computed": sum(w.sources_computed for w in _CACHE.values()),
    }


def clear_routing_cache() -> None:
    """Drop every cached weight structure and reset the counters.

    Also empties the layout placement memo
    (:func:`repro.compiler.layout.clear_layout_cache`), so one call resets
    every compile-path cache.
    """
    _CACHE.clear()
    clear_layout_cache()


def route_circuit_noise_aware(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    edge_errors: dict[tuple[int, int], float] | None = None,
) -> RoutedCircuit:
    """Route a (CX-basis) circuit along error-weighted shortest paths.

    Like :func:`route_circuit`, but SWAP chains follow the path that
    minimises the summed log-infidelity of the couplings they traverse
    (each edge costing ``-log10(1 - e(edge))`` plus a tiny hop penalty),
    and the final CX also executes on the last edge of that path — so a
    gate between graph-adjacent qubits may still detour when the direct
    coupling is bad enough that two SWAPs over clean couplings cost less.
    The walk consumes the weighted path from whichever end's next step is
    cheaper (ties towards the lower physical index), mirroring the basic
    router's mover selection.

    The weighted shortest-path structure comes from the process-wide
    :func:`routing_weights` cache with lazy per-source Dijkstra trees
    (see the module docstring); routes are bit-identical to the
    historical per-call eager all-pairs computation.

    Parameters
    ----------
    circuit:
        Logical circuit containing only one- and two-qubit gates.
    coupling:
        Physical connectivity.
    layout:
        Initial virtual -> physical placement (will not be mutated).
    edge_errors:
        A :class:`~repro.device.device.Device` (its cached
        ``edge_error_arrays()`` feed the weight construction) or a raw
        per-coupling infidelity map.  ``None`` or an empty map falls
        back to :func:`route_circuit`'s hop metric.
    """
    if not edge_errors:
        return route_circuit(circuit, coupling, layout)

    weights = routing_weights(coupling, edge_errors)
    cost = weights._cost
    trees: dict[int, list[int]] = {}

    def swap_chain(p_a: int, p_b: int) -> list[tuple[int, int]]:
        predecessors = trees.get(p_a)
        if predecessors is None:
            predecessors = trees[p_a] = weights.predecessor_row(p_a).tolist()
        # The weighted shortest path p_a -> p_b, read off the Dijkstra tree.
        path = [p_b]
        node = p_b
        while node != p_a:
            node = predecessors[node]
            if node < 0:
                raise ValueError(
                    f"qubits {p_a} and {p_b} are not connected in the coupling map"
                )
            path.append(node)
        path.reverse()
        # Walk the path inward from both ends until the operands sit on
        # its final edge.  Each SWAP shortens the path by one hop
        # (subpaths of shortest paths are shortest), so the loop
        # terminates after len(path) - 2 swaps.
        chain = []
        first, last = 0, len(path) - 1
        while last - first > 1:
            head, head_next = path[first], path[first + 1]
            tail, tail_next = path[last], path[last - 1]
            cost_a = cost[(head, head_next) if head < head_next else (head_next, head)]
            cost_b = cost[(tail, tail_next) if tail < tail_next else (tail_next, tail)]
            if (cost_a, head) <= (cost_b, tail):
                chain.append((head, head_next))
                first += 1
            else:
                chain.append((tail, tail_next))
                last -= 1
        return chain

    return _route(circuit, coupling, layout, swap_chain)
