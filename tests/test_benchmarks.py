"""Tests for the seven benchmark generators (functional correctness included)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.benchmarks import BENCHMARK_NAMES, BENCHMARKS, build_benchmark
from repro.circuits.benchmarks.adder import adder_register_size, cuccaro_adder
from repro.circuits.benchmarks.bit_code import bit_code
from repro.circuits.benchmarks.bv import bernstein_vazirani
from repro.circuits.benchmarks.ghz import ghz
from repro.circuits.benchmarks.hamiltonian import tfim_hamiltonian
from repro.circuits.benchmarks.primacy import quantum_primacy
from repro.circuits.benchmarks.qaoa import qaoa_maxcut
from statevector_reference import simulate


class TestRegistry:
    def test_all_paper_benchmarks_present(self):
        assert set(BENCHMARK_NAMES) == set(BENCHMARKS.names())
        assert len(BENCHMARK_NAMES) == 7

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_build_benchmark_produces_requested_width(self, name):
        circuit = build_benchmark(name, 12, seed=1)
        assert circuit.num_qubits == 12
        assert circuit.num_gates > 0

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            build_benchmark("grover", 8)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmarks_contain_entangling_gates(self, name):
        circuit = build_benchmark(name, 16, seed=0)
        assert circuit.num_two_qubit_gates + circuit.count_ops().get("ccx", 0) > 0


class TestBernsteinVazirani:
    def test_gate_structure(self):
        circuit = bernstein_vazirani(6, secret="10101")
        assert circuit.count_ops()["cx"] == 3

    def test_default_secret_is_all_ones(self):
        circuit = bernstein_vazirani(5)
        assert circuit.count_ops()["cx"] == 4

    def test_recovers_secret(self):
        secret = "1011"
        circuit = bernstein_vazirani(5, secret=secret)
        state = simulate(circuit)
        # Data qubits must read out the secret with certainty.
        for index, bit in enumerate(secret):
            assert state.marginal_probability(index, int(bit)) == pytest.approx(1.0, abs=1e-9)

    def test_secret_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="11")
        with pytest.raises(ValueError):
            bernstein_vazirani(1)

    def test_random_secret_reproducible(self):
        a = bernstein_vazirani(8, seed=3).count_ops().get("cx", 0)
        b = bernstein_vazirani(8, seed=3).count_ops().get("cx", 0)
        assert a == b


class TestGHZ:
    def test_structure(self):
        circuit = ghz(8)
        assert circuit.count_ops() == {"h": 1, "cx": 7}

    def test_state_is_ghz(self):
        state = simulate(ghz(5))
        assert state.probability_of("00000") == pytest.approx(0.5, abs=1e-9)
        assert state.probability_of("11111") == pytest.approx(0.5, abs=1e-9)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestQAOA:
    def test_layer_structure(self):
        circuit = qaoa_maxcut(8, layers=1, seed=2)
        ops = circuit.count_ops()
        assert ops["h"] == 8
        assert ops["rx"] == 8
        assert ops["cx"] == 2 * ops["rz"]

    def test_more_layers_more_gates(self):
        one = qaoa_maxcut(8, layers=1, seed=2).num_gates
        two = qaoa_maxcut(8, layers=2, seed=2).num_gates
        assert two > one

    def test_degree_reduction_for_small_graphs(self):
        circuit = qaoa_maxcut(4, degree=5, seed=1)
        assert circuit.num_qubits == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            qaoa_maxcut(3)
        with pytest.raises(ValueError):
            qaoa_maxcut(8, layers=0)


class TestAdder:
    def test_register_size(self):
        assert adder_register_size(8) == 3
        assert adder_register_size(9) == 3
        with pytest.raises(ValueError):
            adder_register_size(3)

    def test_gate_composition(self):
        circuit = cuccaro_adder(8)
        ops = circuit.count_ops()
        assert ops["ccx"] == 2 * 3  # one MAJ + one UMA per register bit
        assert "cx" in ops

    def test_addition_is_correct(self):
        """|a=7>, |b=5> on a 3-bit adder must produce b = 12 (with carry)."""
        circuit = cuccaro_adder(8)
        state = simulate(circuit)
        # Layout: [carry_in, a0, b0, a1, b1, a2, b2, carry_out]
        # Input preparation sets a = 111 (7), b bits at positions 0 and 2 -> b = 101 (5).
        # Expected sum 12 = 1100b: b0=0, b1=0, b2=1, carry_out=1; a unchanged.
        expectations = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 1, 7: 1}
        for qubit, value in expectations.items():
            assert state.marginal_probability(qubit, value) == pytest.approx(1.0, abs=1e-9), qubit


class TestPrimacy:
    def test_depth_controls_layers(self):
        shallow = quantum_primacy(9, depth=2, seed=0)
        deep = quantum_primacy(9, depth=6, seed=0)
        assert deep.num_two_qubit_gates > shallow.num_two_qubit_gates

    def test_every_qubit_participates(self):
        circuit = quantum_primacy(12, depth=4, seed=1)
        assert circuit.used_qubits() == set(range(12))

    def test_seed_reproducibility(self):
        a = quantum_primacy(10, depth=3, seed=7).count_ops()
        b = quantum_primacy(10, depth=3, seed=7).count_ops()
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            quantum_primacy(1)
        with pytest.raises(ValueError):
            quantum_primacy(8, depth=0)


class TestBitCode:
    def test_syndrome_structure(self):
        circuit = bit_code(7, rounds=2)
        # distance 4 data qubits -> 3 ancillas, 2 CX per ancilla per round.
        assert circuit.count_ops()["cx"] == 2 * 3 * 2

    def test_syndrome_is_trivial_for_logical_state(self):
        """Encoding |1...1> produces no syndrome flips (even parity everywhere)."""
        circuit = bit_code(5, rounds=1)
        state = simulate(circuit)
        for ancilla in (1, 3):
            assert state.marginal_probability(ancilla, 0) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            bit_code(2)
        with pytest.raises(ValueError):
            bit_code(5, rounds=0)


class TestHamiltonian:
    def test_trotter_structure(self):
        circuit = tfim_hamiltonian(6, steps=2)
        ops = circuit.count_ops()
        assert ops["cx"] == 2 * 5 * 2
        assert ops["rx"] == 6 * 2
        assert ops["rz"] == 5 * 2

    def test_probability_conservation(self):
        probabilities = simulate(tfim_hamiltonian(4, steps=3)).probabilities()
        assert np.sum(probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            tfim_hamiltonian(1)
        with pytest.raises(ValueError):
            tfim_hamiltonian(4, steps=0)
