"""The historical layout-path search, kept verbatim as a parity reference.

``repro.compiler.layout.find_long_path`` replaced this body with a
relabelled, pre-sorted DFS kernel that must return exactly the same path
(or ``None``) for every input, budget truncation included.  The tests in
``test_layout_search.py`` compare the two; nothing in ``src/`` imports
this module.
"""

from __future__ import annotations

from repro.topology.coupling import CouplingMap


def reference_find_long_path(
    coupling: CouplingMap,
    length: int,
    attempts: int = 12,
    step_budget: int = 200_000,
) -> list[int] | None:
    """Backtracking search for a simple path visiting ``length`` qubits."""
    graph = coupling.graph()
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
