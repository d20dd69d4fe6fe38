"""Section V-C — fabrication-output comparison (the ~7.7x worked example).

The two input yields come from Monte-Carlo runs, so the comparison now
carries their binomial confidence intervals through Eq. 1: device counts
and the output gain are reported with conservative error bars.
"""

from __future__ import annotations

from repro.core.fabrication import SIGMA_LASER_TUNED_GHZ
from repro.core.output_model import fabrication_output_from_results
from repro.core.yield_model import yield_vs_qubits
from repro.stats.adaptive import StatsOptions

__all__ = ["run_sec5c_fabrication_output"]


def run_sec5c_fabrication_output(
    monolithic_qubits: int = 100,
    chiplet_qubits: int = 10,
    grid: tuple[int, int] = (2, 5),
    batch_size: int = 1000,
    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ,
    seed: int = 7,
    engine=None,
    stats: StatsOptions | None = None,
):
    """Regenerate the Section V-C worked example (about a 7.7x output gain)."""
    curve = yield_vs_qubits(
        sigma_ghz=sigma_ghz,
        step_ghz=0.06,
        sizes=(chiplet_qubits, monolithic_qubits),
        batch_size=batch_size,
        seed=seed,
        executor=engine,
        stats=stats,
    )
    return fabrication_output_from_results(
        monolithic_result=curve.at_size(monolithic_qubits),
        chiplet_result=curve.at_size(chiplet_qubits),
        grid_rows=grid[0],
        grid_cols=grid[1],
        batch_size=batch_size,
    )
