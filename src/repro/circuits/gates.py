"""Gate primitives for the lightweight quantum-circuit IR.

The evaluation pipeline only needs gate *accounting* (how many one- and
two-qubit operations run on which physical couplings); the test suite's
statevector simulator supplies the unitary semantics.  Circuits store
gates as columns (:mod:`repro.circuits.circuit`); a :class:`Gate` is the
public ``(name, qubits, params)`` record built from them on demand.  The known gate names and their arities live in
:data:`GATE_ARITY`, and :func:`check_gate` is the one per-gate check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Gate", "GATE_ARITY", "check_gate", "ONE_QUBIT_GATES", "TWO_QUBIT_GATES", "THREE_QUBIT_GATES"]

#: Supported gate names mapped to the number of qubits they act on.
GATE_ARITY: dict[str, int] = {
    # One-qubit gates.
    "id": 1,
    "h": 1,
    "x": 1,
    "y": 1,
    "z": 1,
    "s": 1,
    "sdg": 1,
    "t": 1,
    "tdg": 1,
    "sx": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    # Two-qubit gates.
    "cx": 2,
    "cz": 2,
    "swap": 2,
    "rzz": 2,
    # Three-qubit gates (decomposed before routing).
    "ccx": 3,
}

ONE_QUBIT_GATES = frozenset(name for name, arity in GATE_ARITY.items() if arity == 1)
TWO_QUBIT_GATES = frozenset(name for name, arity in GATE_ARITY.items() if arity == 2)
THREE_QUBIT_GATES = frozenset(name for name, arity in GATE_ARITY.items() if arity == 3)

#: Gates whose single parameter is a rotation angle.
_PARAMETRIC_GATES = frozenset({"rx", "ry", "rz", "rzz"})


def check_gate(name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> None:
    """Raise ``ValueError`` unless ``(name, qubits, params)`` is a valid gate.

    The one per-gate check: :class:`Gate` runs it on construction and the
    circuit builders run it on every gate they append.
    """
    if name not in GATE_ARITY:
        raise ValueError(f"unknown gate {name!r}")
    expected = GATE_ARITY[name]
    if len(qubits) != expected:
        raise ValueError(f"gate {name!r} expects {expected} qubits, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate {name!r} applied to duplicate qubits {qubits}")
    if name in _PARAMETRIC_GATES and len(params) != 1:
        raise ValueError(f"gate {name!r} requires exactly one parameter")


@dataclass(frozen=True)
class Gate:
    """One quantum gate application.

    Attributes
    ----------
    name:
        Lower-case gate name (must appear in :data:`GATE_ARITY`).
    qubits:
        Qubit indices the gate acts on, in application order (control first
        for controlled gates).
    params:
        Rotation angles for parametric gates.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        check_gate(self.name, self.qubits, self.params)

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_one_qubit(self) -> bool:
        """True for single-qubit gates."""
        return self.num_qubits == 1

    @property
    def is_two_qubit(self) -> bool:
        """True for two-qubit gates."""
        return self.num_qubits == 2

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for every qubit ``q``."""
        return Gate(
            name=self.name,
            qubits=tuple(mapping[q] for q in self.qubits),
            params=self.params,
        )
