"""The historical layout searches, kept verbatim as parity references.

``repro.compiler.layout.find_long_path`` replaced
:func:`reference_find_long_path` with a relabelled, pre-sorted DFS kernel
that must return exactly the same path (or ``None``) for every input,
budget truncation included; ``test_layout_search.py`` compares the two.

The dense placement used to be built through networkx:
:func:`reference_densest_connected_subgraph` grew the region over an
``nx.Graph`` (re-summing each frontier qubit's in-region neighbours every
step) and :func:`reference_region_order` ordered it with ``nx.bfs_tree``.
``repro.compiler.layout`` now builds both on ``CouplingMap.neighbors``
rows and must return the same region and order;
``test_layout_cache.py`` compares them.  Nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import networkx as nx

from graph_helpers import to_networkx
from repro.topology.coupling import CouplingMap


def reference_find_long_path(
    coupling: CouplingMap,
    length: int,
    attempts: int = 12,
    step_budget: int = 200_000,
) -> list[int] | None:
    """Backtracking search for a simple path visiting ``length`` qubits."""
    graph = to_networkx(coupling)
    if length <= 0:
        return []
    if length > graph.number_of_nodes():
        return None
    nodes = sorted(graph.nodes, key=lambda n: (graph.degree[n], n))
    starts = nodes[:attempts]

    for start in starts:
        path = [start]
        on_path = {start}
        # Iterator stack: candidates still to try from each path position.
        stack = [iter(sorted(graph.neighbors(start), key=lambda n: (graph.degree[n], n)))]
        steps = 0
        while stack and steps < step_budget:
            steps += 1
            try:
                candidate = next(stack[-1])
            except StopIteration:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if candidate in on_path:
                continue
            path.append(candidate)
            on_path.add(candidate)
            if len(path) >= length:
                return path
            stack.append(
                iter(sorted(graph.neighbors(candidate), key=lambda n: (graph.degree[n], n)))
            )
    return None


def reference_densest_connected_subgraph(graph: nx.Graph, size: int) -> list[int]:
    """Greedy connected subgraph of ``size`` nodes with many internal edges."""
    if size > graph.number_of_nodes():
        raise ValueError("requested subgraph is larger than the graph")
    if size <= 0:
        return []

    seed = max(graph.nodes, key=lambda n: (graph.degree[n], -n))
    chosen = {seed}
    frontier = set(graph.neighbors(seed))
    while len(chosen) < size:
        if not frontier:
            # Disconnected remainder: jump to the best unchosen node.
            remaining = [n for n in graph.nodes if n not in chosen]
            if not remaining:
                break
            best = max(remaining, key=lambda n: graph.degree[n])
            chosen.add(best)
            frontier.update(set(graph.neighbors(best)) - chosen)
            continue
        best = max(
            frontier,
            key=lambda n: (sum(1 for m in graph.neighbors(n) if m in chosen), graph.degree[n], -n),
        )
        frontier.discard(best)
        chosen.add(best)
        frontier.update(set(graph.neighbors(best)) - chosen)
    return sorted(chosen)


def reference_region_order(graph: nx.Graph, region: list[int]) -> list[int]:
    """The dense branch's physical placement order for a region."""
    sub = graph.subgraph(region)
    # Physical placement order: BFS from the highest-degree node of the region.
    start = max(region, key=lambda n: sub.degree[n])
    physical_order = list(nx.bfs_tree(sub, start))
    physical_order += [n for n in region if n not in set(physical_order)]
    return physical_order
