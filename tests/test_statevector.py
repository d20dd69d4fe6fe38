"""Tests for the dense statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from statevector_reference import Statevector, measurement_probabilities, simulate


class TestBasics:
    def test_initial_state_is_all_zero(self):
        state = Statevector(3)
        assert state.probability_of("000") == pytest.approx(1.0)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            Statevector(0)
        with pytest.raises(ValueError):
            Statevector(25)

    def test_x_flips_qubit(self):
        circuit = QuantumCircuit(2)
        circuit.x(1)
        state = simulate(circuit)
        assert state.probability_of("01") == pytest.approx(1.0)

    def test_h_creates_superposition(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        probabilities = measurement_probabilities(circuit)
        assert probabilities == pytest.approx([0.5, 0.5])

    def test_probability_normalisation(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).rz(0.7, 1).ry(0.3, 2).cz(0, 2)
        assert np.sum(measurement_probabilities(circuit)) == pytest.approx(1.0)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Statevector(2).run(QuantumCircuit(3))

    def test_bitstring_validation(self):
        state = Statevector(2)
        with pytest.raises(ValueError):
            state.probability_of("0")
        with pytest.raises(ValueError):
            state.probability_of("0a")


class TestTwoQubitGates:
    def test_cx_entangles(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        state = simulate(circuit)
        assert state.probability_of("00") == pytest.approx(0.5)
        assert state.probability_of("11") == pytest.approx(0.5)

    def test_cz_phase(self):
        circuit = QuantumCircuit(2)
        circuit.x(0).x(1)
        reference = simulate(circuit).amplitudes
        circuit.cz(0, 1)
        flipped = simulate(circuit).amplitudes
        assert np.allclose(flipped, -reference) or np.allclose(flipped[3], -reference[3])

    def test_swap_moves_excitation(self):
        circuit = QuantumCircuit(2)
        circuit.x(0).swap(0, 1)
        state = simulate(circuit)
        assert state.probability_of("01") == pytest.approx(1.0)

    def test_swap_equals_three_cx(self):
        direct = QuantumCircuit(3)
        direct.h(0).ry(0.4, 1).swap(0, 1)
        decomposed = QuantumCircuit(3)
        decomposed.h(0).ry(0.4, 1).cx(0, 1).cx(1, 0).cx(0, 1)
        assert np.allclose(simulate(direct).amplitudes, simulate(decomposed).amplitudes)

    def test_rzz_is_symmetric(self):
        a = QuantumCircuit(2)
        a.h(0).h(1).rzz(0.8, 0, 1)
        b = QuantumCircuit(2)
        b.h(0).h(1).rzz(0.8, 1, 0)
        assert np.allclose(simulate(a).amplitudes, simulate(b).amplitudes)


class TestThreeQubitGates:
    def test_ccx_truth_table(self):
        for c_a, c_b, expected in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]:
            circuit = QuantumCircuit(3)
            if c_a:
                circuit.x(0)
            if c_b:
                circuit.x(1)
            circuit.ccx(0, 1, 2)
            state = simulate(circuit)
            assert state.marginal_probability(2, expected) == pytest.approx(1.0)


class TestMarginals:
    def test_marginal_probability(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        state = simulate(circuit)
        assert state.marginal_probability(0, 0) == pytest.approx(0.5)
        assert state.marginal_probability(1, 0) == pytest.approx(1.0)

    def test_rotation_angle_consistency(self):
        theta = 1.1
        circuit = QuantumCircuit(1)
        circuit.rx(theta, 0)
        state = simulate(circuit)
        assert state.marginal_probability(0, 1) == pytest.approx(np.sin(theta / 2) ** 2)
