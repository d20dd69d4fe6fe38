"""Gate decomposition into the {1-qubit, CX} basis, over gate columns.

Near-term transmon hardware natively supports single-qubit rotations and a
single two-qubit entangling gate (CX, generated from the Cross-Resonance
interaction).  Before routing, every higher-level gate is rewritten into
that basis:

* ``ccx`` (Toffoli) -> 6 CX plus single-qubit gates (standard textbook
  decomposition),
* ``swap`` -> 3 CX,
* ``rzz`` -> CX - RZ - CX,
* ``cz``  -> H - CX - H.

The rewrite is an index expansion of the circuit's columns: the runs of
gates between two rewritten ones are copied as list slices, and each
rewritten gate is replaced by its template's columns.  The same pass
expands the SWAPs a router inserts (see
:class:`repro.compiler.pipeline.SwapExpandPass`).
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit

__all__ = ["decompose_to_cx_basis"]

_NO_PARAMS_3 = ((), (), ())


def _swap(a: int, b: int, c: int, params: tuple) -> tuple:
    return ("cx", "cx", "cx"), (a, b, a), (b, a, b), _NO_PARAMS_3


def _rzz(a: int, b: int, c: int, params: tuple) -> tuple:
    return ("cx", "rz", "cx"), (a, b, a), (b, -1, b), ((), (float(params[0]),), ())


def _cz(a: int, b: int, c: int, params: tuple) -> tuple:
    return ("h", "cx", "h"), (b, a, b), (-1, b, -1), _NO_PARAMS_3


_CCX_NAMES = (
    "h", "cx", "tdg", "cx", "t", "cx", "tdg", "cx", "t", "t", "h", "cx", "t", "tdg", "cx",
)


def _ccx(a: int, b: int, t: int, params: tuple) -> tuple:
    """Standard 6-CX Toffoli decomposition."""
    return (
        _CCX_NAMES,
        (t, b, t, a, t, b, t, a, b, t, t, a, a, b, a),
        (-1, t, -1, t, -1, t, -1, t, -1, -1, -1, b, -1, -1, b),
        ((),) * 15,
    )


#: Gate name -> template ``(a, b, c, params) -> (names, q0, q1, params)``.
_REWRITES = {"ccx": _ccx, "swap": _swap, "rzz": _rzz, "cz": _cz}
_REWRITES_KEEPING_SWAPS = {"ccx": _ccx, "rzz": _rzz, "cz": _cz}


def decompose_to_cx_basis(circuit: QuantumCircuit, keep_swaps: bool = False) -> QuantumCircuit:
    """Rewrite a circuit into the {1-qubit, CX} basis.

    Parameters
    ----------
    circuit:
        Circuit to rewrite.
    keep_swaps:
        When ``True``, ``swap`` gates are passed through unchanged (useful
        before routing, which treats them natively); otherwise they are
        expanded into 3 CX.
    """
    rewrites = _REWRITES_KEEPING_SWAPS if keep_swaps else _REWRITES
    names, q0, q1, params, third = (
        circuit.names, circuit.q0, circuit.q1, circuit.params, circuit.q2
    )
    out_names: list[str] = []
    out_q0: list[int] = []
    out_q1: list[int] = []
    out_params: list[tuple[float, ...]] = []
    start = 0
    # Every ccx is rewritten, so the copied runs carry no third operand.
    for index in [index for index, name in enumerate(names) if name in rewrites]:
        if start < index:  # routed circuits carry long runs of SWAPs
            out_names += names[start:index]
            out_q0 += q0[start:index]
            out_q1 += q1[start:index]
            out_params += params[start:index]
        new_names, new_q0, new_q1, new_params = rewrites[names[index]](
            q0[index], q1[index], third.get(index, -1), params[index]
        )
        out_names += new_names
        out_q0 += new_q0
        out_q1 += new_q1
        out_params += new_params
        start = index + 1
    out_names += names[start:]
    out_q0 += q0[start:]
    out_q1 += q1[start:]
    out_params += params[start:]
    return QuantumCircuit(
        circuit.num_qubits, circuit.name, out_names, out_q0, out_q1, out_params
    )
