"""Fidelity-product figure of merit (estimated success probability).

The architectures evaluated in the paper exceed classical simulability, so
benchmark quality is scored with the fidelity product of all two-qubit
gates — the dominant term of the estimated-success-probability (ESP) metric
used throughout the NISQ compilation literature:

    F = prod over two-qubit gates g of (1 - e(edge(g)))

where ``e(edge)`` is the infidelity of the physical coupling the gate runs
on.  Because compiled benchmarks contain thousands of gates, the product is
accumulated in log space; ratios between architectures are formed from the
log values to avoid underflow.

The product is computed in one numpy pass over integer edge indices:
gate edges are encoded as ``u * num_qubits + v`` and matched against the
device's cached sorted key array
(:meth:`repro.device.device.Device.edge_error_arrays`) with a single
``searchsorted``, so scoring a compiled benchmark costs one vectorised
lookup + one ``log10`` reduction instead of a Python loop per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Mapping

import numpy as np

from repro.device.device import Device
from repro.engine.phases import phase

__all__ = ["FidelityScore", "fidelity_product", "fidelity_ratio"]


@dataclass(frozen=True)
class FidelityScore:
    """Fidelity product of one compiled benchmark on one device.

    Attributes
    ----------
    log10_fidelity:
        log10 of the two-qubit-gate fidelity product (``-inf`` if any gate
        runs on a fully-depolarising coupling).
    num_two_qubit_gates:
        Number of two-qubit gates contributing to the product.
    """

    log10_fidelity: float
    num_two_qubit_gates: int

    @property
    def fidelity(self) -> float:
        """The raw fidelity product (may underflow to 0.0 for deep circuits)."""
        return 10.0**self.log10_fidelity if self.log10_fidelity > -inf else 0.0


def fidelity_product(
    two_qubit_edges: np.ndarray | Iterable[tuple[int, int]],
    edge_errors: Device | Mapping[tuple[int, int], float],
) -> FidelityScore:
    """Fidelity product of a sequence of two-qubit gates.

    Parameters
    ----------
    two_qubit_edges:
        Physical coupling used by each two-qubit gate: an iterable of
        ``(u, v)`` pairs, or the ``(k, 2)`` integer edge columns of a
        compiled circuit (``transpiled.circuit.edge_array()``), which are
        used as they are.
    edge_errors:
        Device (or raw mapping) providing per-coupling infidelity.  The
        device path reuses the cached
        :meth:`~repro.device.device.Device.edge_error_arrays`; a raw
        mapping is normalised (and array-ised) per call.
    """
    with phase("score"):
        return _fidelity_product_impl(two_qubit_edges, edge_errors)


def _fidelity_product_impl(
    two_qubit_edges: np.ndarray | Iterable[tuple[int, int]],
    edge_errors: Device | Mapping[tuple[int, int], float],
) -> FidelityScore:
    if not isinstance(two_qubit_edges, np.ndarray):
        two_qubit_edges = list(two_qubit_edges)
    edges = np.asarray(two_qubit_edges, dtype=np.int64).reshape(-1, 2)
    count = edges.shape[0]
    if count == 0:
        return FidelityScore(log10_fidelity=0.0, num_two_qubit_gates=0)
    gate_u = np.minimum(edges[:, 0], edges[:, 1])
    gate_v = np.maximum(edges[:, 0], edges[:, 1])

    if isinstance(edge_errors, Device):
        base = edge_errors.coupling.num_qubits
        keys, errors = edge_errors.edge_error_arrays()
    else:
        normalised = {
            (min(u, v), max(u, v)): float(e) for (u, v), e in edge_errors.items()
        }
        items = sorted(normalised.items())
        largest = max((v for _, v in normalised), default=0)
        base = max(int(gate_v.max()), largest) + 1
        keys = np.asarray([u * base + v for (u, v), _ in items], dtype=np.int64)
        errors = np.asarray([error for _, error in items], dtype=float)

    gate_keys = gate_u * base + gate_v
    positions = np.minimum(np.searchsorted(keys, gate_keys), max(keys.size - 1, 0))
    valid = (keys[positions] == gate_keys) if keys.size else np.zeros(count, dtype=bool)
    gate_errors = errors[positions] if keys.size else np.zeros(count)
    fidelities = 1.0 - gate_errors
    dead = (fidelities <= 0.0) & valid

    # Preserve the sequential semantics: a fully-depolarising coupling
    # short-circuits the walk (count = gates up to and including it), so
    # it wins over a missing edge appearing later in program order.
    first_dead = int(np.argmax(dead)) if dead.any() else count
    first_missing = int(np.argmax(~valid)) if not valid.all() else count
    if first_dead < first_missing:
        return FidelityScore(log10_fidelity=-inf, num_two_qubit_gates=first_dead + 1)
    if first_missing < count:
        raise KeyError((int(gate_u[first_missing]), int(gate_v[first_missing])))

    total = float(np.log10(fidelities).sum())
    return FidelityScore(log10_fidelity=total, num_two_qubit_gates=count)


def fidelity_ratio(mcm: FidelityScore, monolithic: FidelityScore | None) -> float:
    """``F_MCM / F_Mono`` computed in log space.

    Returns ``inf`` when the monolithic architecture is unavailable (zero
    collision-free yield), mirroring the red-X points in the paper's Fig. 10.
    """
    if monolithic is None or monolithic.log10_fidelity == -inf:
        return inf
    difference = mcm.log10_fidelity - monolithic.log10_fidelity
    if difference > 300:
        return inf
    return 10.0**difference
