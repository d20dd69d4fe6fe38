"""SWAP-insertion routing onto restricted connectivity.

The router walks the circuit in program order.  Single-qubit gates are
emitted directly on the physical qubit currently hosting their virtual
qubit.  For a two-qubit gate whose operands are not adjacent, SWAPs are
inserted along a shortest path between the two hosts, moving from the
cheaper end and stopping one hop short so the final CX executes on a real
coupling.  SWAP selection uses the pre-computed all-pairs distance matrix,
so routing a circuit with tens of thousands of gates onto a 500-qubit MCM
stays fast.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.compiler.layout import Layout
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
        Physical circuit (gates address physical qubits; ``swap`` gates are
        still explicit and can be decomposed later).
    initial_layout, final_layout:
        Virtual -> physical assignment before and after execution.
    num_swaps:
        Number of SWAPs inserted.
    two_qubit_edges:
        The physical coupling used by every two-qubit gate, in emission
        order (SWAPs contribute their edge once; after decomposition into
        3 CX the edge is counted three times by the fidelity analysis).
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int = 0
    two_qubit_edges: list[tuple[int, int]] = field(default_factory=list)


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
    distance = coupling.distance_matrix()
    working = layout.copy()
    physical = QuantumCircuit(num_qubits=coupling.num_qubits, name=circuit.name)
    routed = RoutedCircuit(
        circuit=physical,
        initial_layout=layout.copy(),
        final_layout=working,
    )

    for gate in circuit:
        if gate.num_qubits == 1:
            physical.append(
                Gate(gate.name, (working.physical(gate.qubits[0]),), gate.params)
            )
            continue
        if gate.num_qubits != 2:
            raise ValueError(
                f"gate {gate.name!r} must be decomposed to the CX basis before routing"
            )
        virtual_a, virtual_b = gate.qubits
        p_a = working.physical(virtual_a)
        p_b = working.physical(virtual_b)
        # Bring the two operands adjacent by swapping along a shortest path.
        # Both endpoints are considered as the "mover" and the swap that
        # shrinks the remaining distance the most (ties broken towards the
        # lower qubit index) is applied.
        while distance[p_a, p_b] > 1:
            best_a = min(coupling.neighbors(p_a), key=lambda n: (distance[n, p_b], n))
            best_b = min(coupling.neighbors(p_b), key=lambda n: (distance[n, p_a], n))
            if distance[best_a, p_b] <= distance[best_b, p_a]:
                mover, step = p_a, best_a
            else:
                mover, step = p_b, best_b
            physical.swap(mover, step)
            routed.num_swaps += 1
            routed.two_qubit_edges.append((min(mover, step), max(mover, step)))
            working.swap_physical(mover, step)
            p_a = working.physical(virtual_a)
            p_b = working.physical(virtual_b)
        physical.append(Gate(gate.name, (p_a, p_b), gate.params))
        routed.two_qubit_edges.append((min(p_a, p_b), max(p_a, p_b)))

    return routed


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
    historical eager all-pairs run (:meth:`predecessor_matrix` pins
    this in the parity suite).  Endpoint costs for the router's
    mover tie-break come from a per-edge dict instead of the old dense
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

    def edge_cost(self, u: int, v: int) -> float:
        """Routing cost of the coupling between ``u`` and ``v``."""
        return self._cost[(u, v) if u < v else (v, u)]

    def predecessor_row(self, source: int) -> np.ndarray:
        """The Dijkstra predecessor row for one source, computed lazily."""
        row = self._pred.get(source)
        if row is None:
            with self._lock:
                row = self._pred.get(source)
                if row is None:
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

    def predecessor_matrix(self) -> np.ndarray:
        """Eagerly compute every source's tree in one batched call.

        This is the historical all-pairs behaviour; the benchmark's
        legacy-cost emulation and the lazy-vs-eager parity tests use it.
        The rows replace (identically) any lazily computed ones.
        """
        _, pred = shortest_path(
            self._matrix, method="D", directed=False, return_predecessors=True
        )
        with self._lock:
            for source in range(self.num_qubits):
                self._pred[source] = pred[source]
        return pred


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
    """Drop every cached weight structure and reset the counters."""
    _CACHE.clear()


def _weighted_path(predecessors: np.ndarray, source: int, target: int) -> list[int]:
    """Reconstruct one weighted shortest path from a predecessor row."""
    path = [target]
    node = target
    while node != source:
        node = int(predecessors[node])
        if node < 0:
            raise ValueError(
                f"qubits {source} and {target} are not connected in the coupling map"
            )
        path.append(node)
    path.reverse()
    return path


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
    working = layout.copy()
    physical = QuantumCircuit(num_qubits=coupling.num_qubits, name=circuit.name)
    routed = RoutedCircuit(
        circuit=physical,
        initial_layout=layout.copy(),
        final_layout=working,
    )

    for gate in circuit:
        if gate.num_qubits == 1:
            physical.append(
                Gate(gate.name, (working.physical(gate.qubits[0]),), gate.params)
            )
            continue
        if gate.num_qubits != 2:
            raise ValueError(
                f"gate {gate.name!r} must be decomposed to the CX basis before routing"
            )
        virtual_a, virtual_b = gate.qubits
        p_a = working.physical(virtual_a)
        p_b = working.physical(virtual_b)
        # Walk the weighted shortest path inward from both ends until the
        # operands sit on its final edge.  Each SWAP shortens the path by
        # one hop (subpaths of shortest paths are shortest), so the loop
        # terminates after len(path) - 2 swaps.
        path = _weighted_path(weights.predecessor_row(p_a), p_a, p_b)
        while len(path) > 2:
            cost_a = weights.edge_cost(path[0], path[1])
            cost_b = weights.edge_cost(path[-1], path[-2])
            if (cost_a, path[0]) <= (cost_b, path[-1]):
                mover, step = path[0], path[1]
                path = path[1:]
            else:
                mover, step = path[-1], path[-2]
                path = path[:-1]
            physical.swap(mover, step)
            routed.num_swaps += 1
            routed.two_qubit_edges.append((min(mover, step), max(mover, step)))
            working.swap_physical(mover, step)
        p_a, p_b = working.physical(virtual_a), working.physical(virtual_b)
        physical.append(Gate(gate.name, (p_a, p_b), gate.params))
        routed.two_qubit_edges.append((min(p_a, p_b), max(p_a, p_b)))

    return routed
