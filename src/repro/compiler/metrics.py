"""Compiled-circuit metrics (the quantities reported in the paper's Table II).

For every compiled benchmark the paper reports the single-qubit gate count,
the two-qubit gate count and the length of the two-qubit critical path.
:func:`gate_metrics` extracts all three (and the full depth) from a
physical circuit's gate columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit

__all__ = ["GateMetrics", "gate_metrics"]


@dataclass(frozen=True)
class GateMetrics:
    """Gate-count summary of a compiled circuit.

    Attributes
    ----------
    num_one_qubit:
        Single-qubit gate count.
    num_two_qubit:
        Two-qubit gate count (after SWAP decomposition).
    two_qubit_critical_path:
        Longest chain of dependent two-qubit gates.
    depth:
        Full circuit depth.
    """

    num_one_qubit: int
    num_two_qubit: int
    two_qubit_critical_path: int
    depth: int


def gate_metrics(circuit: QuantumCircuit) -> GateMetrics:
    """Compute Table II-style metrics for a compiled circuit.

    Both counts come from the ``q1`` column and both depths from one walk
    over the integer columns (:meth:`QuantumCircuit.depths`).
    """
    depth, two_qubit_depth = circuit.depths()
    return GateMetrics(
        num_one_qubit=circuit.num_one_qubit_gates,
        num_two_qubit=circuit.num_two_qubit_gates,
        two_qubit_critical_path=two_qubit_depth,
        depth=depth,
    )
