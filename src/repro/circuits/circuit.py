"""A minimal, compiler-friendly quantum-circuit container.

:class:`QuantumCircuit` stores its gates as parallel columns: ``names``,
``q0``, ``q1`` (``-1`` for one-qubit gates) and ``params``, plus a sparse
``q2`` map from gate index to the third operand of the ``ccx`` gates a
logical circuit may carry before decomposition.  The compiler passes read
and write these columns directly; :class:`~repro.circuits.gates.Gate`
records are built only on demand (:attr:`QuantumCircuit.gates` and
iteration), for callers that want the public record.

Gates are validated where outside input arrives: the builder methods
(:meth:`~QuantumCircuit.add` and the named emitters) check every gate, and
a pass's output is checked once per circuit when the pass constructs the
circuit from its columns.  The metrics the paper's Table II
reports (one-qubit count, two-qubit count and the two-qubit critical
path) come from one walk over the integer columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import Iterable, Iterator

import numpy as np

from repro.circuits.gates import GATE_ARITY, Gate, check_gate

__all__ = ["QuantumCircuit"]


@dataclass
class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Constructing a circuit from columns (what the compiler passes do)
    checks the whole circuit once: column lengths, unknown gate names,
    operands outside the register and a gate applied twice to one qubit.
    The lists are taken over, not copied.

    Attributes
    ----------
    num_qubits:
        Number of (virtual or physical) qubits addressed by the circuit.
    name:
        Optional identifier, e.g. the benchmark name.
    names, q0, q1, params:
        The gate columns in program order: gate name, first operand,
        second operand (``-1`` for one-qubit gates) and parameter tuple.
    q2:
        Third operand of each three-qubit gate, keyed by gate index
        (empty once a circuit is in the CX basis).
    """

    num_qubits: int
    name: str = "circuit"
    names: list[str] = field(default_factory=list)
    q0: list[int] = field(default_factory=list)
    q1: list[int] = field(default_factory=list)
    params: list[tuple[float, ...]] = field(default_factory=list)
    q2: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        count = len(self.names)
        if not len(self.q0) == len(self.q1) == len(self.params) == count:
            raise ValueError("gate columns differ in length")
        if not count:
            return
        unknown = set(self.names).difference(GATE_ARITY)
        if unknown:
            raise ValueError(f"unknown gate {sorted(unknown)[0]!r}")
        third = self.q2.values()
        low = min(min(self.q0), min(third, default=0))
        high = max(max(self.q0), max(self.q1), max(third, default=0))
        if low < 0 or high >= self.num_qubits or min(self.q1) < -1:
            raise ValueError(
                f"a gate addresses a qubit outside the {self.num_qubits}-qubit register"
            )
        if any(map(eq, self.q0, self.q1)) or any(
            target in (self.q0[index], self.q1[index]) for index, target in self.q2.items()
        ):
            raise ValueError("a gate is applied to duplicate qubits")

    # ------------------------------------------------------------------ #
    # Gate emission
    # ------------------------------------------------------------------ #
    def _push(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"gate {name!r} addresses qubit {qubit} outside the "
                    f"{self.num_qubits}-qubit register"
                )
        if len(qubits) == 3:
            self.q2[len(self.names)] = qubits[2]
        self.names.append(name)
        self.q0.append(qubits[0])
        self.q1.append(qubits[1] if len(qubits) > 1 else -1)
        self.params.append(params)

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a pre-built gate (validated against the register size)."""
        self._push(gate.name, gate.qubits, gate.params)
        return self

    def add(self, name: str, *qubits: int, params: tuple[float, ...] = ()) -> "QuantumCircuit":
        """Append a gate by name."""
        params = tuple(params)
        check_gate(name, qubits, params)
        self._push(name, qubits, params)
        return self

    def h(self, q: int) -> "QuantumCircuit":
        """Hadamard gate."""
        return self.add("h", q)

    def x(self, q: int) -> "QuantumCircuit":
        """Pauli-X gate."""
        return self.add("x", q)

    def y(self, q: int) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self.add("y", q)

    def z(self, q: int) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self.add("z", q)

    def s(self, q: int) -> "QuantumCircuit":
        """Phase gate."""
        return self.add("s", q)

    def t(self, q: int) -> "QuantumCircuit":
        """T gate."""
        return self.add("t", q)

    def tdg(self, q: int) -> "QuantumCircuit":
        """Inverse T gate."""
        return self.add("tdg", q)

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        """X-axis rotation."""
        return self.add("rx", q, params=(float(theta),))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        """Y-axis rotation."""
        return self.add("ry", q, params=(float(theta),))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        """Z-axis rotation."""
        return self.add("rz", q, params=(float(theta),))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-NOT gate."""
        return self.add("cx", control, target)

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z gate."""
        return self.add("cz", control, target)

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """SWAP gate."""
        return self.add("swap", a, b)

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """ZZ interaction rotation."""
        return self.add("rzz", a, b, params=(float(theta),))

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Toffoli gate."""
        return self.add("ccx", control_a, control_b, target)

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append a sequence of gates."""
        for gate in gates:
            self.append(gate)
        return self

    # ------------------------------------------------------------------ #
    # Introspection and transformation
    # ------------------------------------------------------------------ #
    def _operands(self, index: int) -> tuple[int, ...]:
        """The qubits gate ``index`` acts on, in application order."""
        a, b = self.q0[index], self.q1[index]
        if b < 0:
            return (a,)
        if index in self.q2:
            return (a, b, self.q2[index])
        return (a, b)

    @property
    def gates(self) -> list[Gate]:
        """The gates as :class:`Gate` records, built on demand."""
        return [
            Gate(name, self._operands(index), params)
            for index, (name, params) in enumerate(zip(self.names, self.params))
        ]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def num_gates(self) -> int:
        """Total gate count."""
        return len(self.names)

    @property
    def num_one_qubit_gates(self) -> int:
        """Number of single-qubit gates."""
        return self.q1.count(-1)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates."""
        return len(self.names) - self.q1.count(-1) - len(self.q2)

    def count_ops(self) -> dict[str, int]:
        """Histogram of gate names."""
        return dict(Counter(self.names))

    def used_qubits(self) -> set[int]:
        """Qubits touched by at least one gate."""
        used = set(self.q0).union(self.q1, self.q2.values())
        used.discard(-1)
        return used

    def depths(self) -> tuple[int, int]:
        """The full depth and the two-qubit depth, from one walk.

        The depth is the longest dependency chain of gates; the two-qubit
        depth counts only two-or-more-qubit gates, which is the "2q
        critical path" reported in the paper's Table II.
        """
        full = [0] * self.num_qubits
        two = [0] * self.num_qubits
        third = (
            [self.q2.get(index, -1) for index in range(len(self.q0))]
            if self.q2
            else repeat(-1)
        )
        for a, b, c in zip(self.q0, self.q1, third):
            if b < 0:
                full[a] += 1
                continue
            level = full[a] if full[a] > full[b] else full[b]
            level_two = two[a] if two[a] > two[b] else two[b]
            if c >= 0:
                level = max(level, full[c])
                level_two = max(level_two, two[c])
                full[c] = level + 1
                two[c] = level_two + 1
            full[a] = full[b] = level + 1
            two[a] = two[b] = level_two + 1
        return max(full), max(two)

    def depth(self, two_qubit_only: bool = False) -> int:
        """Circuit depth (longest dependency chain of gates).

        With ``two_qubit_only`` the depth counts only two-or-more-qubit
        gates (see :meth:`depths`).
        """
        return self.depths()[1 if two_qubit_only else 0]

    def edge_array(self) -> np.ndarray:
        """Coupling of every two-qubit gate as a ``(k, 2)`` int64 array.

        Rows are ``(low, high)`` qubit pairs in program order: the edge
        columns the fidelity product consumes.
        """
        q0 = np.array(self.q0, dtype=np.int64)
        q1 = np.array(self.q1, dtype=np.int64)
        two = q1 >= 0
        if self.q2:
            two[list(self.q2)] = False
        q0, q1 = q0[two], q1[two]
        return np.stack([np.minimum(q0, q1), np.maximum(q0, q1)], axis=1)

    def interaction_graph(self) -> dict[int, set[int]]:
        """Adjacency of the multi-qubit interaction graph."""
        adjacency: dict[int, set[int]] = {q: set() for q in range(self.num_qubits)}
        for a, b in zip(self.q0, self.q1):
            if b >= 0:
                adjacency[a].add(b)
                adjacency[b].add(a)
        for index, c in self.q2.items():
            for q in (self.q0[index], self.q1[index]):
                adjacency[q].add(c)
                adjacency[c].add(q)
        return adjacency

    def remapped(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a copy with every qubit ``q`` replaced by ``mapping[q]``."""
        return QuantumCircuit(
            num_qubits if num_qubits is not None else self.num_qubits,
            self.name,
            list(self.names),
            [mapping[q] for q in self.q0],
            [mapping[q] if q >= 0 else -1 for q in self.q1],
            list(self.params),
            {index: mapping[q] for index, q in self.q2.items()},
        )

    def copy(self) -> "QuantumCircuit":
        """Copy of the circuit (the columns are copied, parameters shared)."""
        return QuantumCircuit(
            self.num_qubits,
            self.name,
            list(self.names),
            list(self.q0),
            list(self.q1),
            list(self.params),
            dict(self.q2),
        )
