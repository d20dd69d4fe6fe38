"""The physical-device abstraction used by the evaluation pipeline.

A :class:`Device` bundles a coupling map, per-qubit frequencies and per-edge
two-qubit gate infidelities.  Both fabricated monolithic chips and assembled
multi-chip modules are represented by the same class; MCMs simply flag some
couplings as inter-chip links (carrying link-quality error rates).

The compiler consumes the coupling map; the fidelity and application
analyses consume the error map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.qubit import PhysicalQubit
from repro.topology.coupling import CouplingMap

__all__ = ["Device"]


def _normalise_edge(edge: tuple[int, int]) -> tuple[int, int]:
    u, v = edge
    return (min(u, v), max(u, v))


@dataclass
class Device:
    """A quantum device ready for compilation and fidelity analysis.

    Attributes
    ----------
    name:
        Human-readable identifier.
    coupling:
        Qubit connectivity (including inter-chip link flags for MCMs).
    frequencies_ghz:
        Actual per-qubit frequencies.
    labels:
        Per-qubit frequency labels (0/1/2).
    edge_errors:
        Two-qubit gate infidelity for every coupling.
    metadata:
        Free-form details (chiplet size, MCM dimensions, ...).
    """

    name: str
    coupling: CouplingMap
    frequencies_ghz: np.ndarray
    labels: np.ndarray
    edge_errors: dict[tuple[int, int], float]
    metadata: dict = field(default_factory=dict)
    _edge_arrays: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.frequencies_ghz = np.asarray(self.frequencies_ghz, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.frequencies_ghz.shape[0] != self.coupling.num_qubits:
            raise ValueError("frequency array does not match the qubit count")
        if self.labels.shape[0] != self.coupling.num_qubits:
            raise ValueError("label array does not match the qubit count")
        self.edge_errors = {
            _normalise_edge(edge): float(error)
            for edge, error in self.edge_errors.items()
        }
        missing = set(self.coupling.edges) - set(self.edge_errors)
        if missing:
            raise ValueError(f"missing error rates for couplings: {sorted(missing)[:5]}")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of physical qubits."""
        return self.coupling.num_qubits

    @property
    def num_edges(self) -> int:
        """Number of couplings."""
        return self.coupling.num_edges

    @property
    def num_link_edges(self) -> int:
        """Number of inter-chip link couplings (0 for monolithic devices)."""
        return len(self.coupling.link_edges)

    def qubit(self, index: int) -> PhysicalQubit:
        """Return a :class:`PhysicalQubit` record for one qubit.

        Devices that went through the post-fabrication repair stage list
        their shifted qubits under the ``"tuned_qubits"`` metadata key;
        the record's ``tuned`` flag reflects membership.
        """
        label = int(self.labels[index])
        return PhysicalQubit(
            index=index,
            frequency_ghz=float(self.frequencies_ghz[index]),
            ideal_frequency_ghz=float(self.frequencies_ghz[index]),
            label=label,
            tuned=index in set(self.metadata.get("tuned_qubits", ())),
        )

    @property
    def num_tuned_qubits(self) -> int:
        """Qubits shifted by post-fabrication repair (0 when untuned)."""
        return len(set(self.metadata.get("tuned_qubits", ())))

    def edge_error_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached array view of the normalised edge-error map.

        Returns ``(keys, errors)`` where ``keys`` is the sorted
        ``int64`` array encoding each normalised coupling ``(u, v)``
        (``u < v``) as ``u * num_qubits + v`` and ``errors`` holds the
        matching infidelities.  Computed once per device and reused by
        the vectorised fidelity product and the noise-aware router, so
        hot scoring loops never rebuild a per-call edge dict.
        """
        if self._edge_arrays is None:
            n = self.coupling.num_qubits
            items = sorted(self.edge_errors.items())
            keys = np.asarray([u * n + v for (u, v), _ in items], dtype=np.int64)
            errors = np.asarray([error for _, error in items], dtype=float)
            self._edge_arrays = (keys, errors)
        return self._edge_arrays

    def error_for(self, u: int, v: int) -> float:
        """Two-qubit gate infidelity of the coupling between ``u`` and ``v``."""
        return self.edge_errors[_normalise_edge((u, v))]

    def detuning_for(self, u: int, v: int) -> float:
        """Absolute frequency detuning between two coupled qubits."""
        return abs(float(self.frequencies_ghz[u] - self.frequencies_ghz[v]))

    def average_two_qubit_error(self) -> float:
        """Average infidelity over every coupling (the paper's ``E_avg``)."""
        return float(np.mean(list(self.edge_errors.values())))

    def average_on_chip_error(self) -> float:
        """Average infidelity over intra-chip couplings only."""
        values = [
            error
            for edge, error in self.edge_errors.items()
            if not self.coupling.is_link(*edge)
        ]
        return float(np.mean(values)) if values else 0.0

    def average_link_error(self) -> float:
        """Average infidelity over inter-chip link couplings only."""
        values = [
            error
            for edge, error in self.edge_errors.items()
            if self.coupling.is_link(*edge)
        ]
        return float(np.mean(values)) if values else 0.0

    def best_edges(self, count: int) -> list[tuple[tuple[int, int], float]]:
        """The ``count`` lowest-error couplings as ``(edge, error)`` pairs."""
        ranked = sorted(self.edge_errors.items(), key=lambda item: item[1])
        return ranked[:count]

