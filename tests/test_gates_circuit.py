"""Tests for the gate IR and circuit container."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_ARITY, Gate


class TestGate:
    def test_known_gate_arities(self):
        assert GATE_ARITY["h"] == 1
        assert GATE_ARITY["cx"] == 2
        assert GATE_ARITY["ccx"] == 3

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            Gate("foo", (0,))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Gate("cx", (0,))

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))

    def test_parametric_gates_need_one_parameter(self):
        with pytest.raises(ValueError):
            Gate("rz", (0,))
        gate = Gate("rz", (0,), (0.5,))
        assert gate.params == (0.5,)

    def test_classification_properties(self):
        assert Gate("h", (0,)).is_one_qubit
        assert Gate("cx", (0, 1)).is_two_qubit
        assert not Gate("ccx", (0, 1, 2)).is_two_qubit


class TestQuantumCircuit:
    def test_fluent_builders(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).rz(0.3, 2).ccx(0, 1, 2)
        assert circuit.num_gates == 4
        assert circuit.count_ops() == {"h": 1, "cx": 1, "rz": 1, "ccx": 1}

    def test_gate_counting(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).cx(0, 1).cx(1, 2).swap(0, 2)
        assert circuit.num_one_qubit_gates == 2
        assert circuit.num_two_qubit_gates == 3

    def test_rejects_out_of_range_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).cx(0, 2)

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_depth(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).h(0)
        assert circuit.depth() == 3

    def test_two_qubit_depth_ignores_single_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(0).h(0).cx(0, 1).h(1).cx(1, 2)
        assert circuit.depth(two_qubit_only=True) == 2

    def test_parallel_gates_share_a_layer(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(2, 3)
        assert circuit.depth() == 1

    def test_used_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 3)
        assert circuit.used_qubits() == {1, 3}

    def test_interaction_graph(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(1, 2)
        graph = circuit.interaction_graph()
        assert graph[1] == {0, 2}
        assert graph[3] == set()

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        clone = circuit.copy()
        clone.x(1)
        assert circuit.num_gates == 1
        assert clone.num_gates == 2

    def test_iteration_and_len(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        assert len(circuit) == 2
        assert [g.name for g in circuit] == ["h", "cx"]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30))
    def test_property_depth_bounds(self, pairs):
        """Depth is always between ceil(gates/width) and the gate count."""
        circuit = QuantumCircuit(5)
        for a, b in pairs:
            if a == b:
                circuit.h(a)
            else:
                circuit.cx(a, b)
        depth = circuit.depth()
        assert depth <= circuit.num_gates
        if circuit.num_gates:
            assert depth >= 1
        assert circuit.depth(two_qubit_only=True) <= depth
