"""Fig. 6 — configuration counting and the assembled-MCM bound."""

from __future__ import annotations

from repro.core.chiplet import ChipletDesign
from repro.core.configurations import configuration_curve
from repro.core.fabrication import SIGMA_LASER_TUNED_GHZ
from repro.core.yield_model import yield_vs_qubits

__all__ = ["run_fig6_configurations"]


def run_fig6_configurations(
    chiplet_yield: float | None = None,
    batch_size: int = 100_000,
    chiplet_qubits: int = 20,
    max_grid: int = 7,
    seed: int = 7,
    engine=None,
):
    """Regenerate Fig. 6 (configurations and assembled-MCM bound vs. size).

    When ``chiplet_yield`` is ``None`` the yield of the 20-qubit chiplet is
    measured by Monte-Carlo at the state-of-the-art precision, mirroring the
    paper's ~69.4 % figure, as one fixed-seed point.
    """
    if chiplet_yield is None:
        design = ChipletDesign.build(chiplet_qubits)
        curve = yield_vs_qubits(
            sigma_ghz=SIGMA_LASER_TUNED_GHZ,
            step_ghz=0.06,
            sizes=(chiplet_qubits,),
            batch_size=5000,
            seed=seed,
            lattices={chiplet_qubits: design.lattice},
            executor=engine,
        )
        chiplet_yield = curve.yields[0]
    return configuration_curve(
        chiplet_yield=chiplet_yield,
        batch_size=batch_size,
        chiplet_qubits=chiplet_qubits,
        max_grid=max_grid,
    )
