"""Monolithic vs. MCM fabrication-output model (paper Section V-C, Eq. 1).

Chiplets occupy less wafer area than a monolithic die, so the same wafer
budget produces many more of them.  Approximating the die-area ratio by the
qubit-capacity ratio ``q_m / q_c``, the number of complete ``k x m`` MCMs
obtainable from the wafer area that would have produced ``B`` monolithic
dies is

    N = Y_c * (B * q_m / q_c) / (k * m)            (Eq. 1)

while the monolithic output is simply ``Y_m * B``.  The paper's worked
example (q_m = 100, q_c = 10, B = 1000, Y_m = 0.11, Y_c = 0.85, 2 x 5 MCMs)
gives an output gain of roughly 7.7x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: yield_model imports nothing from here
    from repro.core.yield_model import YieldResult

__all__ = [
    "FabricationOutput",
    "mcm_output_upper_bound",
    "monolithic_output",
    "compare_fabrication_output",
    "fabrication_output_from_results",
]


@dataclass(frozen=True)
class FabricationOutput:
    """Comparison of monolithic vs. MCM production from equal wafer area.

    Attributes
    ----------
    monolithic_devices:
        Expected number of collision-free monolithic devices (``Y_m * B``).
    mcm_devices:
        Upper bound on the number of complete MCMs (Eq. 1).
    monolithic_yield_ci, chiplet_yield_ci:
        Optional ``(low, high)`` binomial confidence intervals on the two
        input yields (present when the yields came from Monte-Carlo
        :class:`~repro.core.yield_model.YieldResult` objects).
    monolithic_repaired_yield, chiplet_repaired_yield:
        Optional fraction of each batch that is collision-free *only*
        thanks to post-fabrication repair (set when the input yields
        came through a tuned pipeline;  ``compare=False`` keeps the
        untuned comparison's golden summaries and cache identities
        unchanged).  Both input yields already *include* the repaired
        dies; these fields break out how much of them repair
        contributed.
    gain:
        ``mcm_devices / monolithic_devices`` (``inf`` when the monolithic
        yield is zero).
    """

    monolithic_qubits: int
    chiplet_qubits: int
    grid_rows: int
    grid_cols: int
    batch_size: int
    monolithic_yield: float
    chiplet_yield: float
    monolithic_devices: float
    mcm_devices: float
    monolithic_yield_ci: tuple[float, float] | None = None
    chiplet_yield_ci: tuple[float, float] | None = None
    monolithic_repaired_yield: float | None = field(default=None, compare=False)
    chiplet_repaired_yield: float | None = field(default=None, compare=False)

    @property
    def gain(self) -> float:
        """Manufacturing-output gain of the MCM route over the monolith."""
        if self.monolithic_devices == 0:
            return float("inf")
        return self.mcm_devices / self.monolithic_devices

    @property
    def monolithic_devices_ci(self) -> tuple[float, float] | None:
        """Device-count interval implied by the monolithic yield CI."""
        if self.monolithic_yield_ci is None:
            return None
        low, high = self.monolithic_yield_ci
        return (low * self.batch_size, high * self.batch_size)

    @property
    def mcm_devices_ci(self) -> tuple[float, float] | None:
        """MCM-count interval implied by the chiplet yield CI (Eq. 1)."""
        if self.chiplet_yield_ci is None:
            return None
        low, high = self.chiplet_yield_ci
        eq1 = lambda y: mcm_output_upper_bound(
            y,
            self.batch_size,
            self.monolithic_qubits,
            self.chiplet_qubits,
            self.grid_rows,
            self.grid_cols,
        )
        return (eq1(low), eq1(high))

    @property
    def gain_ci(self) -> tuple[float, float] | None:
        """Conservative interval on the output gain.

        Worst case over both input intervals: lowest MCM count against
        the highest monolithic count, and vice versa (``inf`` when the
        monolithic bound reaches zero).
        """
        mcm_ci = self.mcm_devices_ci
        mono_ci = self.monolithic_devices_ci
        if mcm_ci is None or mono_ci is None:
            return None
        low = mcm_ci[0] / mono_ci[1] if mono_ci[1] > 0 else float("inf")
        high = mcm_ci[1] / mono_ci[0] if mono_ci[0] > 0 else float("inf")
        return (low, high)


def mcm_output_upper_bound(
    chiplet_yield: float,
    batch_size: int,
    monolithic_qubits: int,
    chiplet_qubits: int,
    grid_rows: int,
    grid_cols: int,
) -> float:
    """Equation 1: upper bound on complete MCMs from the shared wafer budget."""
    if not 0.0 <= chiplet_yield <= 1.0:
        raise ValueError("chiplet_yield must be a probability")
    if min(batch_size, monolithic_qubits, chiplet_qubits, grid_rows, grid_cols) <= 0:
        raise ValueError("all size parameters must be positive")
    chiplet_batch = batch_size * monolithic_qubits / chiplet_qubits
    return chiplet_yield * chiplet_batch / (grid_rows * grid_cols)


def monolithic_output(monolithic_yield: float, batch_size: int) -> float:
    """Expected number of collision-free monolithic devices from the batch."""
    if not 0.0 <= monolithic_yield <= 1.0:
        raise ValueError("monolithic_yield must be a probability")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return monolithic_yield * batch_size


def compare_fabrication_output(
    monolithic_yield: float,
    chiplet_yield: float,
    batch_size: int,
    monolithic_qubits: int,
    chiplet_qubits: int,
    grid_rows: int,
    grid_cols: int,
    monolithic_yield_ci: tuple[float, float] | None = None,
    chiplet_yield_ci: tuple[float, float] | None = None,
    monolithic_repaired_yield: float | None = None,
    chiplet_repaired_yield: float | None = None,
) -> FabricationOutput:
    """Full Section V-C comparison for one (monolith, chiplet, MCM) triple."""
    if grid_rows * grid_cols * chiplet_qubits != monolithic_qubits:
        raise ValueError(
            "the MCM must contain the same number of qubits as the monolithic device"
        )
    return FabricationOutput(
        monolithic_qubits=monolithic_qubits,
        chiplet_qubits=chiplet_qubits,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        batch_size=batch_size,
        monolithic_yield=monolithic_yield,
        chiplet_yield=chiplet_yield,
        monolithic_devices=monolithic_output(monolithic_yield, batch_size),
        mcm_devices=mcm_output_upper_bound(
            chiplet_yield,
            batch_size,
            monolithic_qubits,
            chiplet_qubits,
            grid_rows,
            grid_cols,
        ),
        monolithic_yield_ci=monolithic_yield_ci,
        chiplet_yield_ci=chiplet_yield_ci,
        monolithic_repaired_yield=monolithic_repaired_yield,
        chiplet_repaired_yield=chiplet_repaired_yield,
    )


def _repaired_fraction(result: "YieldResult") -> float | None:
    """Repaired fraction of a result's batch (``None`` for untuned results).

    Duck-typed on the ``num_repaired`` attribute so this module keeps
    its no-runtime-import relationship with the yield model.
    """
    num_repaired = getattr(result, "num_repaired", None)
    if num_repaired is None:
        return None
    return num_repaired / result.samples_used


def fabrication_output_from_results(
    monolithic_result: "YieldResult",
    chiplet_result: "YieldResult",
    grid_rows: int,
    grid_cols: int,
    batch_size: int | None = None,
) -> FabricationOutput:
    """Section V-C comparison straight from two Monte-Carlo yield results.

    Wires the results' confidence intervals into the output comparison,
    so the worked example reports device counts and the ~7.7x gain with
    error bars.  ``batch_size`` defaults to the monolithic result's
    sample count (for adaptive runs the two results may have used
    different sample counts; the wafer budget ``B`` of Eq. 1 is a free
    parameter, not tied to either).  Results produced by a tuned
    pipeline (:class:`~repro.core.yield_model.RepairedYieldResult`)
    additionally populate the repaired-die breakout fields.
    """
    return compare_fabrication_output(
        monolithic_yield=monolithic_result.estimate,
        chiplet_yield=chiplet_result.estimate,
        batch_size=batch_size if batch_size is not None else monolithic_result.samples_used,
        monolithic_qubits=monolithic_result.num_qubits,
        chiplet_qubits=chiplet_result.num_qubits,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        monolithic_yield_ci=(monolithic_result.ci_low, monolithic_result.ci_high),
        chiplet_yield_ci=(chiplet_result.ci_low, chiplet_result.ci_high),
        monolithic_repaired_yield=_repaired_fraction(monolithic_result),
        chiplet_repaired_yield=_repaired_fraction(chiplet_result),
    )
