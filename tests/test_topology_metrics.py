"""Tests for the dense-region helper of the layout pass."""

from __future__ import annotations

import networkx as nx
import pytest

from graph_helpers import to_networkx
from repro.compiler.layout import densest_connected_subgraph
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


def path(n: int) -> CouplingMap:
    return CouplingMap(num_qubits=n, edges=[(i, i + 1) for i in range(n - 1)])


class TestDensestConnectedSubgraph:
    def test_returns_requested_size(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(65))
        nodes = densest_connected_subgraph(coupling, 40)
        assert len(nodes) == 40

    def test_subgraph_is_connected(self):
        coupling = CouplingMap.from_lattice(heavy_hex_by_qubit_count(65))
        nodes = densest_connected_subgraph(coupling, 52)
        assert nx.is_connected(to_networkx(coupling).subgraph(nodes))

    def test_zero_size(self):
        assert densest_connected_subgraph(path(4), 0) == []

    def test_full_graph(self):
        assert densest_connected_subgraph(path(6), 6) == list(range(6))

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            densest_connected_subgraph(path(3), 5)

    def test_respects_seed(self):
        coupling = path(8)
        nodes = densest_connected_subgraph(coupling, 3, seed=0)
        assert 0 in nodes
        assert nx.is_connected(to_networkx(coupling).subgraph(nodes))
