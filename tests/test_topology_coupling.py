"""Tests for the CouplingMap abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


@pytest.fixture()
def line_map() -> CouplingMap:
    return CouplingMap(num_qubits=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


class TestConstruction:
    def test_edges_are_normalised_and_deduplicated(self):
        cmap = CouplingMap(num_qubits=3, edges=[(2, 0), (0, 2), (1, 0)])
        assert cmap.edges == [(0, 1), (0, 2)]
        assert cmap.num_edges == 2

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            CouplingMap(num_qubits=3, edges=[(1, 1)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            CouplingMap(num_qubits=3, edges=[(0, 3)])

    def test_rejects_unknown_link_edges(self):
        with pytest.raises(ValueError):
            CouplingMap(num_qubits=3, edges=[(0, 1)], link_edges=frozenset({(1, 2)}))

    def test_from_lattice(self):
        lattice = heavy_hex_by_qubit_count(27)
        cmap = CouplingMap.from_lattice(lattice)
        assert cmap.num_qubits == 27
        assert cmap.num_edges == lattice.num_edges


class TestQueries:
    def test_neighbors(self, line_map):
        assert line_map.neighbors(0) == [1]
        assert sorted(line_map.neighbors(2)) == [1, 3]

    def test_has_edge(self, line_map):
        assert line_map.has_edge(1, 0)
        assert not line_map.has_edge(0, 2)

    def test_is_link(self):
        cmap = CouplingMap(
            num_qubits=4, edges=[(0, 1), (1, 2), (2, 3)], link_edges=frozenset({(2, 1)})
        )
        assert cmap.is_link(1, 2)
        assert cmap.is_link(2, 1)
        assert not cmap.is_link(0, 1)

    def test_is_connected(self, line_map):
        assert line_map.is_connected()
        disconnected = CouplingMap(num_qubits=4, edges=[(0, 1), (2, 3)])
        assert not disconnected.is_connected()


class TestDistances:
    def test_distance_matrix_shape_and_values(self, line_map):
        matrix = line_map.distance_matrix()
        assert matrix.shape == (5, 5)
        assert matrix[0, 4] == 4
        assert np.allclose(np.diag(matrix), 0)

    def test_distance_and_diameter(self, line_map):
        assert line_map.distance(0, 3) == 3
        assert line_map.distance_matrix().max() == 4

    def test_distance_matrix_is_cached(self, line_map):
        assert line_map.distance_matrix() is line_map.distance_matrix()

    def test_shortest_path_endpoints(self, line_map):
        path = line_map.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == 5

    def test_heavy_hex_distances_symmetric(self):
        lattice = heavy_hex_by_qubit_count(40)
        cmap = CouplingMap.from_lattice(lattice)
        matrix = cmap.distance_matrix()
        assert np.allclose(matrix, matrix.T)
        assert matrix.max() >= 5
