"""networkx views of lattices and coupling maps, for tests only.

``src/`` answers every graph question on adjacency rows and never builds
a networkx graph.  Tests and the parity references that want one build
it here: nodes first (a lattice's site indices, or a coupling map's
``range(num_qubits)``), then ``edges`` in order, so neighbour iteration
matches the cached ``graph()`` views the parity references were written
against.
"""

from __future__ import annotations

import networkx as nx


def to_networkx(obj) -> nx.Graph:
    """A fresh :class:`networkx.Graph` of a lattice or a coupling map."""
    graph = nx.Graph()
    if hasattr(obj, "sites"):
        graph.add_nodes_from(site.index for site in obj.sites)
    else:
        graph.add_nodes_from(range(obj.num_qubits))
    graph.add_edges_from(obj.edges)
    return graph
