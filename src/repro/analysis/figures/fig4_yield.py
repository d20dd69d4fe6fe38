"""Fig. 4 — collision-free yield vs. qubits (the flagship parallel sweep).

The grid is ``len(steps) * len(sigmas) * len(sizes)`` independent
Monte-Carlo points; passing an :class:`repro.engine.runner.ExecutionEngine` fans
them out over worker processes with bit-identical results to the
sequential run at the same seed.  Every point carries a binomial
confidence interval, and a :class:`repro.stats.adaptive.StatsOptions` switches the
whole grid to chunked streaming / adaptive sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_table
from repro.core.fabrication import (
    SIGMA_AS_FABRICATED_GHZ,
    SIGMA_LASER_TUNED_GHZ,
    SIGMA_SCALING_TARGET_GHZ,
)
from repro.core.yield_model import YieldResult, detuning_sweep
from repro.stats.adaptive import StatsOptions
from repro.tuning.repair import TuningOptions

__all__ = ["Fig4Result", "run_fig4_yield_sweep"]


@dataclass
class Fig4Result:
    """Yield curves for every (detuning step, sigma_f) combination.

    ``curves`` keeps the plain yield fractions (the original, lightweight
    view); ``results`` holds the full per-point :class:`YieldResult`
    objects — estimate, CI bounds and samples used — in the same order.
    """

    sizes: tuple[int, ...]
    curves: dict[tuple[float, float], list[float]] = field(default_factory=dict)
    results: dict[tuple[float, float], list[YieldResult]] = field(default_factory=dict)

    def best_step(self, sigma_ghz: float) -> float:
        """Detuning step with the highest total yield for a given precision."""
        totals: dict[float, float] = {}
        for (step, sigma), yields in self.curves.items():
            if abs(sigma - sigma_ghz) < 1e-12:
                totals[step] = totals.get(step, 0.0) + sum(yields)
        return max(totals, key=totals.get)

    def format_table(self) -> str:
        """Render the yield grid (one row per curve)."""
        header = ["step", "sigma"] + [str(s) for s in self.sizes]
        body = []
        for (step, sigma), yields in sorted(self.curves.items()):
            body.append([f"{step:.2f}", f"{sigma:.4f}"] + [f"{y:.3f}" for y in yields])
        return format_table(header, body)

    def format_ci_table(self) -> str:
        """Render the grid with confidence intervals (``est [low,high]``)."""
        header = ["step", "sigma"] + [str(s) for s in self.sizes]
        body = []
        for (step, sigma), points in sorted(self.results.items()):
            cells = [
                f"{p.estimate:.3f} [{p.ci_low:.3f},{p.ci_high:.3f}]" for p in points
            ]
            body.append([f"{step:.2f}", f"{sigma:.4f}"] + cells)
        return format_table(header, body)

    def samples_used(self) -> int:
        """Total Monte-Carlo samples drawn across the grid."""
        return sum(p.samples_used for points in self.results.values() for p in points)


def run_fig4_yield_sweep(
    steps_ghz: tuple[float, ...] = (0.04, 0.05, 0.06, 0.07),
    sigmas_ghz: tuple[float, ...] = (
        SIGMA_AS_FABRICATED_GHZ,
        SIGMA_LASER_TUNED_GHZ,
        SIGMA_SCALING_TARGET_GHZ,
    ),
    sizes: tuple[int, ...] = (5, 10, 20, 40, 65, 100, 200, 300, 500, 750, 1000),
    batch_size: int = 1000,
    seed: int = 7,
    engine=None,
    stats: StatsOptions | None = None,
    topology: str | None = None,
    tuning: TuningOptions | None = None,
) -> Fig4Result:
    """Regenerate the Fig. 4 grid of yield-vs-qubits curves.

    Parameters
    ----------
    engine:
        Optional :class:`repro.engine.runner.ExecutionEngine`; the sweep's points
        are submitted through it (parallelism + result caching) and the
        output stays bit-identical to the in-process run.
    stats:
        Optional statistics options (chunked streaming / adaptive
        sampling with CI targets).
    topology:
        Registered topology name; the heavy-hex default reproduces the
        paper's grid, ``"square"``/``"ring"`` regenerate it for the
        denser/sparser scenarios.
    tuning:
        Optional post-fabrication repair options; the grid's yields then
        include tuner-recovered dies.
    """
    curves = detuning_sweep(
        steps_ghz=steps_ghz,
        sigmas_ghz=sigmas_ghz,
        sizes=sizes,
        batch_size=batch_size,
        seed=seed,
        executor=engine,
        stats=stats,
        topology=topology,
        tuning=tuning,
    )
    result = Fig4Result(sizes=sizes)
    for key, curve in curves.items():
        result.curves[key] = curve.yields
        result.results[key] = list(curve.points)
    return result
