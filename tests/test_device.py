"""Tests for the Device abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.device import Device
from repro.topology.coupling import CouplingMap


@pytest.fixture()
def tiny_device() -> Device:
    coupling = CouplingMap(
        num_qubits=4,
        edges=[(0, 1), (1, 2), (2, 3)],
        link_edges=frozenset({(2, 3)}),
    )
    return Device(
        name="tiny",
        coupling=coupling,
        frequencies_ghz=np.array([5.0, 5.12, 5.06, 5.12]),
        labels=np.array([0, 2, 1, 2]),
        edge_errors={(0, 1): 0.01, (1, 2): 0.02, (2, 3): 0.08},
    )


class TestDeviceValidation:
    def test_requires_error_for_every_edge(self):
        coupling = CouplingMap(num_qubits=3, edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Device(
                name="broken",
                coupling=coupling,
                frequencies_ghz=np.zeros(3),
                labels=np.zeros(3, dtype=int),
                edge_errors={(0, 1): 0.01},
            )

    def test_requires_matching_frequency_length(self):
        coupling = CouplingMap(num_qubits=3, edges=[(0, 1)])
        with pytest.raises(ValueError):
            Device(
                name="broken",
                coupling=coupling,
                frequencies_ghz=np.zeros(2),
                labels=np.zeros(3, dtype=int),
                edge_errors={(0, 1): 0.01},
            )

    def test_edge_errors_are_normalised(self, tiny_device):
        assert tiny_device.error_for(1, 0) == pytest.approx(0.01)
        assert tiny_device.error_for(3, 2) == pytest.approx(0.08)


class TestDeviceQueries:
    def test_counts(self, tiny_device):
        assert tiny_device.num_qubits == 4
        assert tiny_device.num_edges == 3
        assert tiny_device.num_link_edges == 1

    def test_average_errors(self, tiny_device):
        assert tiny_device.average_two_qubit_error() == pytest.approx((0.01 + 0.02 + 0.08) / 3)
        assert tiny_device.average_on_chip_error() == pytest.approx(0.015)
        assert tiny_device.average_link_error() == pytest.approx(0.08)

    def test_detuning(self, tiny_device):
        assert tiny_device.detuning_for(0, 1) == pytest.approx(0.12)

    def test_best_edges(self, tiny_device):
        best = tiny_device.best_edges(2)
        assert best[0][0] == (0, 1)
        assert len(best) == 2

    def test_qubit_record(self, tiny_device):
        qubit = tiny_device.qubit(1)
        assert qubit.index == 1
        assert qubit.label == 2
        assert qubit.frequency_ghz == pytest.approx(5.12)

