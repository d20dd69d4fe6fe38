"""Fig. 9 — average-infidelity heat-maps under four link scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.study import ArchitectureStudy
from repro.core.mcm import square_dimensions_for

__all__ = ["Fig9Result", "run_fig9_infidelity_heatmap"]


@dataclass
class Fig9Result:
    """E_avg ratios per scenario, chiplet size and square MCM dimension."""

    cells: list[dict] = field(default_factory=list)

    def fraction_below_one(self, scenario: str) -> float:
        """Fraction of (finite) cells where the MCM wins for one scenario."""
        ratios = [
            c["ratio"]
            for c in self.cells
            if c["scenario"] == scenario and np.isfinite(c["ratio"])
        ]
        if not ratios:
            return float("nan")
        return float(np.mean([r < 1.0 for r in ratios]))

    def best_ratio(self, scenario: str) -> float:
        """Lowest finite ratio for one scenario (the paper quotes ~0.815)."""
        ratios = [
            c["ratio"]
            for c in self.cells
            if c["scenario"] == scenario and np.isfinite(c["ratio"])
        ]
        return min(ratios) if ratios else float("nan")

    def format_table(self, scenario: str) -> str:
        """Render one scenario's heat-map as a table."""
        header = ["chiplet", "grid", "qubits", "E_mcm", "E_mono", "ratio"]
        body = []
        for cell in self.cells:
            if cell["scenario"] != scenario:
                continue
            ratio = cell["ratio"]
            body.append(
                [
                    cell["chiplet_size"],
                    f"{cell['grid'][0]}x{cell['grid'][1]}",
                    cell["num_qubits"],
                    f"{cell['mcm_eavg']:.4f}",
                    "n/a" if np.isnan(cell["mono_eavg"]) else f"{cell['mono_eavg']:.4f}",
                    "inf-yield" if not np.isfinite(ratio) else f"{ratio:.3f}",
                ]
            )
        return format_table(header, body)


def run_fig9_infidelity_heatmap(
    study: ArchitectureStudy,
    chiplet_sizes: tuple[int, ...] | None = None,
) -> Fig9Result:
    """Regenerate the Fig. 9 heat-maps for all four link scenarios.

    Like Fig. 8, the study's engine (when present) prefetches every bin,
    assembly and monolithic run the heat-maps touch in parallel waves.
    """
    config = study.config
    sizes = chiplet_sizes or tuple(
        s for s in config.chiplet_sizes if square_dimensions_for(s, config.max_qubits)
    )

    grids: list[tuple[int, tuple[int, int]]] = []
    monolithic_sizes: set[int] = set()
    for chiplet_size in sizes:
        for grid in square_dimensions_for(chiplet_size, config.max_qubits):
            grids.append((chiplet_size, grid))
            monolithic_sizes.add(chiplet_size * grid[0] * grid[1])
    study.prefetch(
        chiplet_sizes=sizes,
        mcm_grids=grids,
        monolithic_sizes=sorted(monolithic_sizes),
    )

    result = Fig9Result()
    for chiplet_size in sizes:
        for grid in square_dimensions_for(chiplet_size, config.max_qubits):
            mcm = study.mcm_result(chiplet_size, grid)
            mono = study.monolithic_result(mcm.design.num_qubits)
            # Scaled-yield comparison (Section VII-C2): the monolithic pool
            # contains only its collision-free devices, so the modular pool
            # is restricted to the same number of modules, built from the
            # best chiplets of the sorted, collision-free bin.
            num_mono_devices = int(
                round(mono.collision_free_yield * config.monolithic_batch_size)
            )
            count = max(1, num_mono_devices)
            for scenario in study.scenarios:
                mcm_eavg = mcm.eavg_for_scenario(scenario, count=count)
                ratio = (
                    mcm_eavg / mono.eavg
                    if np.isfinite(mono.eavg) and mono.eavg > 0
                    else float("inf")
                )
                result.cells.append(
                    {
                        "chiplet_size": chiplet_size,
                        "grid": grid,
                        "num_qubits": mcm.design.num_qubits,
                        "scenario": scenario.name,
                        "mcm_eavg": mcm_eavg,
                        "mono_eavg": mono.eavg,
                        "ratio": ratio,
                    }
                )
    return result
