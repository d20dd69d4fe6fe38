"""Small dense statevector simulator, a test-suite reference.

The evaluation of the paper never simulates full quantum dynamics (the
studied systems are far beyond classical simulability); the simulator here
lets the tests verify functional correctness of the circuit IR, the
benchmark generators and the compiler (a routed/decomposed circuit must
implement the same unitary as the logical one, up to qubit relabelling).

It supports every gate in :data:`repro.circuits.gates.GATE_ARITY` on up to
roughly 16 qubits.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate

__all__ = ["Statevector", "simulate", "measurement_probabilities"]

_SQRT2 = np.sqrt(2.0)

_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}


def _rotation(name: str, theta: float) -> np.ndarray:
    half = theta / 2.0
    if name == "rx":
        return np.array(
            [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]],
            dtype=complex,
        )
    if name == "ry":
        return np.array(
            [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]], dtype=complex
        )
    if name == "rz":
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex
        )
    raise ValueError(f"unknown rotation gate {name!r}")


class Statevector:
    """Dense statevector over ``num_qubits`` qubits (qubit 0 is the LSB)."""

    MAX_QUBITS = 20

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > self.MAX_QUBITS:
            raise ValueError(
                f"statevector simulation limited to {self.MAX_QUBITS} qubits"
            )
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(2**num_qubits, dtype=complex)
        self.amplitudes[0] = 1.0

    # ------------------------------------------------------------------ #
    # Gate application
    # ------------------------------------------------------------------ #
    def _apply_1q(self, matrix: np.ndarray, qubit: int) -> None:
        state = self.amplitudes.reshape([2] * self.num_qubits)
        axis = self.num_qubits - 1 - qubit
        state = np.moveaxis(state, axis, 0)
        state = np.tensordot(matrix, state, axes=([1], [0]))
        self.amplitudes = np.moveaxis(state, 0, axis).reshape(-1)

    def _apply_cx(self, control: int, target: int) -> None:
        indices = np.arange(self.amplitudes.size)
        control_mask = (indices >> control) & 1
        flipped = indices ^ (1 << target)
        new = self.amplitudes.copy()
        selected = control_mask == 1
        new[indices[selected]] = self.amplitudes[flipped[selected]]
        self.amplitudes = new

    def _apply_cz(self, control: int, target: int) -> None:
        indices = np.arange(self.amplitudes.size)
        both = ((indices >> control) & 1) & ((indices >> target) & 1)
        self.amplitudes = np.where(both == 1, -self.amplitudes, self.amplitudes)

    def _apply_swap(self, a: int, b: int) -> None:
        indices = np.arange(self.amplitudes.size)
        bit_a = (indices >> a) & 1
        bit_b = (indices >> b) & 1
        swapped = indices ^ ((bit_a ^ bit_b) << a) ^ ((bit_a ^ bit_b) << b)
        self.amplitudes = self.amplitudes[swapped]

    def _apply_ccx(self, c_a: int, c_b: int, target: int) -> None:
        indices = np.arange(self.amplitudes.size)
        both = ((indices >> c_a) & 1) & ((indices >> c_b) & 1)
        flipped = indices ^ (1 << target)
        new = self.amplitudes.copy()
        selected = both == 1
        new[indices[selected]] = self.amplitudes[flipped[selected]]
        self.amplitudes = new

    def apply(self, gate: Gate) -> None:
        """Apply one gate to the state."""
        name = gate.name
        if name in _FIXED_1Q:
            self._apply_1q(_FIXED_1Q[name], gate.qubits[0])
        elif name in ("rx", "ry", "rz"):
            self._apply_1q(_rotation(name, gate.params[0]), gate.qubits[0])
        elif name == "cx":
            self._apply_cx(*gate.qubits)
        elif name == "cz":
            self._apply_cz(*gate.qubits)
        elif name == "swap":
            self._apply_swap(*gate.qubits)
        elif name == "rzz":
            a, b = gate.qubits
            self._apply_cx(a, b)
            self._apply_1q(_rotation("rz", gate.params[0]), b)
            self._apply_cx(a, b)
        elif name == "ccx":
            self._apply_ccx(*gate.qubits)
        else:
            raise ValueError(f"unsupported gate {name!r}")

    def run(self, circuit: QuantumCircuit) -> "Statevector":
        """Apply every gate of a circuit and return ``self``."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width does not match the statevector")
        for gate in circuit:
            self.apply(gate)
        return self

    # ------------------------------------------------------------------ #
    # Measurement helpers
    # ------------------------------------------------------------------ #
    def probabilities(self) -> np.ndarray:
        """Probability of each computational-basis outcome."""
        return np.abs(self.amplitudes) ** 2

    def probability_of(self, bitstring: str) -> float:
        """Probability of the outcome described by ``bitstring``.

        The string is ordered with qubit 0 leftmost (``bitstring[q]`` is the
        value of qubit ``q``).
        """
        if len(bitstring) != self.num_qubits:
            raise ValueError("bitstring length does not match the register size")
        index = 0
        for qubit, bit in enumerate(bitstring):
            if bit == "1":
                index |= 1 << qubit
            elif bit != "0":
                raise ValueError("bitstring must contain only 0 and 1")
        return float(np.abs(self.amplitudes[index]) ** 2)

    def marginal_probability(self, qubit: int, value: int) -> float:
        """Probability that one qubit is measured in ``value``."""
        indices = np.arange(self.amplitudes.size)
        mask = ((indices >> qubit) & 1) == value
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))


def simulate(circuit: QuantumCircuit) -> Statevector:
    """Run a circuit on the all-zeros initial state."""
    return Statevector(circuit.num_qubits).run(circuit)


def measurement_probabilities(circuit: QuantumCircuit) -> np.ndarray:
    """Convenience wrapper returning the final outcome distribution."""
    return simulate(circuit).probabilities()
