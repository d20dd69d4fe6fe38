"""Post-fabrication repair experiments (beyond the paper's figures).

Two registry experiments put the :mod:`repro.tuning` subsystem to work:

``tunedyield``
    The yield-vs-size sweep run once per registered topology with the
    repair stage enabled.  Every Monte-Carlo point returns a
    :class:`repro.core.yield_model.RepairedYieldResult`, so a single
    task per (topology, size) yields *both* curves — the as-fabricated
    yield and the post-repair yield — from literally the same fabricated
    devices.  The gap between the curves is the yield the tuner
    recovered: dies the paper's pipeline would have scrapped.

``repairbudget``
    Repaired yield as a function of the tuner's reach (max shift) and
    per-qubit tune budget, at a fixed device size.  Every grid cell
    reuses the *same master seed*, so all rows screen the identical
    fabricated batch and differences are purely what the tuner could do
    with it — the as-fab column is constant by construction.

Both experiments submit one engine task per point with positional child
seeds (registry-position stable for topologies, grid-position irrelevant
for the budget sweep since every cell shares the seed), so parallel runs
are bit-identical to sequential ones and every tuned point's cache key
embeds its :class:`~repro.tuning.TuningOptions`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.analysis.figures.topologies import _seeds_by_topology
from repro.analysis.reporting import format_table
from repro.core.architecture import ARCHITECTURES, get_architecture
from repro.core.fabrication import SIGMA_LASER_TUNED_GHZ
from repro.core.yield_model import (
    RepairedYieldResult,
    simulate_yield_point,
)
from repro.engine.dispatch import run_calls
from repro.engine.seeding import spawn_seeds
from repro.stats import StatsOptions
from repro.tuning import TuningOptions

__all__ = [
    "TunedYieldResult",
    "RepairBudgetRow",
    "RepairBudgetResult",
    "run_tuned_yield_comparison",
    "run_repair_budget_sweep",
    "DEFAULT_TUNED_SIZES",
    "DEFAULT_SHIFT_GRID_MHZ",
    "DEFAULT_BUDGET_GRID",
]

#: Device sizes probed by the tuned-vs-as-fab yield comparison.
DEFAULT_TUNED_SIZES = (10, 20, 40, 65, 100, 200)

#: Tuner reach grid (MHz) of the repair-budget sweep; 0 is the no-repair
#: baseline row.
DEFAULT_SHIFT_GRID_MHZ = (0.0, 10.0, 50.0, 100.0, 300.0)

#: Per-qubit tune budgets of the repair-budget sweep (``None`` = unlimited).
DEFAULT_BUDGET_GRID = (1, None)


@dataclass
class TunedYieldResult:
    """As-fab vs. repaired yield curves per topology.

    Attributes
    ----------
    sizes:
        Device sizes along every curve.
    sigma_ghz, step_ghz:
        Shared fabrication precision and detuning step.
    tuning:
        The repair configuration every point ran with.
    curves:
        Topology name -> per-size :class:`RepairedYieldResult` points.
    """

    sizes: tuple[int, ...]
    sigma_ghz: float
    step_ghz: float
    tuning: TuningOptions
    curves: dict[str, list[RepairedYieldResult]] = field(default_factory=dict)

    def as_fab_yields(self, topology: str) -> list[float]:
        """Yield fractions before repair along one topology's curve."""
        return [p.as_fab_yield for p in self.curves[topology]]

    def repaired_yields(self, topology: str) -> list[float]:
        """Yield fractions after repair along one topology's curve."""
        return [p.repaired_yield for p in self.curves[topology]]

    def format_table(self) -> str:
        """Two rows per topology: the as-fab curve and the repaired curve."""
        header = ["topology", "pipeline"] + [str(s) for s in self.sizes]
        body = []
        for topology in self.curves:
            body.append(
                [topology, "as-fab"]
                + [f"{y:.3f}" for y in self.as_fab_yields(topology)]
            )
            body.append(
                [topology, "repaired"]
                + [f"{y:.3f}" for y in self.repaired_yields(topology)]
            )
        return format_table(header, body)


def run_tuned_yield_comparison(
    topologies: tuple[str, ...] | None = None,
    sizes: tuple[int, ...] = DEFAULT_TUNED_SIZES,
    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ,
    step_ghz: float = 0.06,
    batch_size: int = 400,
    seed: int = 7,
    engine=None,
    stats: StatsOptions | None = None,
    tuning: TuningOptions | None = None,
) -> TunedYieldResult:
    """As-fab vs. repaired collision-free yield for every topology.

    One engine task per (topology, size) point; seeding follows the
    registry-position contract of
    :func:`repro.analysis.figures.topologies._seeds_by_topology`, so a
    filtered run (``--topology square``) reproduces exactly the rows of
    the full comparison.  ``tuning`` defaults to the default greedy
    tuner (:class:`~repro.tuning.TuningOptions`).
    """
    tuning = tuning if tuning is not None else TuningOptions()
    curve_seeds = _seeds_by_topology(seed)
    names = tuple(
        get_architecture(topology).name
        for topology in (topologies if topologies else ARCHITECTURES.names())
    )
    result = TunedYieldResult(
        sizes=sizes, sigma_ghz=sigma_ghz, step_ghz=step_ghz, tuning=tuning
    )
    stats = stats or StatsOptions()

    kwargs_list = []
    for topology in names:
        arch = get_architecture(topology)
        lattices = {size: arch.lattice(size) for size in sizes}
        point_seeds = spawn_seeds(curve_seeds[topology], len(sizes))
        for size, child_seed in zip(sizes, point_seeds):
            kwargs_list.append(
                dict(
                    sigma_ghz=sigma_ghz,
                    step_ghz=step_ghz,
                    num_qubits=size,
                    batch_size=batch_size,
                    seed=child_seed,
                    thresholds=None,
                    lattice=lattices[size],
                    chunk_size=stats.chunk_size,
                    ci_target=stats.ci_target,
                    max_samples=stats.max_samples,
                    topology=topology,
                    tuning=tuning,
                )
            )
    points = run_calls(simulate_yield_point, kwargs_list, engine, "yield.tuned")
    for index, topology in enumerate(names):
        result.curves[topology] = points[index * len(sizes) : (index + 1) * len(sizes)]
    return result


@dataclass
class RepairBudgetRow:
    """One (max shift, budget) cell of the repair-budget sweep."""

    max_shift_mhz: float
    budget: int | None
    as_fab_yield: float
    repaired_yield: float
    num_repaired: int
    tuned_qubits: int
    total_tunes: int


@dataclass
class RepairBudgetResult:
    """Yield vs. tuner reach and per-qubit budget at one device size."""

    topology: str
    num_qubits: int
    sigma_ghz: float
    batch_size: int
    strategy: str
    rows: list[RepairBudgetRow] = field(default_factory=list)

    def format_table(self) -> str:
        """Render one row per (max shift, budget) cell."""
        header = [
            "max shift (MHz)",
            "budget",
            "as-fab yield",
            "repaired yield",
            "repaired dies",
            "tuned qubits",
        ]
        body = []
        for row in self.rows:
            body.append(
                [
                    f"{row.max_shift_mhz:g}",
                    "inf" if row.budget is None else str(row.budget),
                    f"{row.as_fab_yield:.3f}",
                    f"{row.repaired_yield:.3f}",
                    row.num_repaired,
                    row.tuned_qubits,
                ]
            )
        return format_table(header, body)


def run_repair_budget_sweep(
    topology: str | None = None,
    num_qubits: int = 65,
    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ,
    step_ghz: float = 0.06,
    shifts_mhz: tuple[float, ...] = DEFAULT_SHIFT_GRID_MHZ,
    budgets: tuple[int | None, ...] = DEFAULT_BUDGET_GRID,
    batch_size: int = 400,
    seed: int = 7,
    engine=None,
    tuning: TuningOptions | None = None,
) -> RepairBudgetResult:
    """Repaired yield vs. tuner reach and per-qubit tune budget.

    Every cell runs :func:`simulate_yield_point` at the *same* seed, so
    the fabricated batch is identical across the grid and the repaired
    column isolates the tuner's contribution.  That same-seed design is
    also the sweep's shared-draw axis: with the sample bank enabled
    (:mod:`repro.core.sample_bank`) the whole reach x budget grid
    fabricates ONCE and every other cell re-scales banked draws, while
    the per-cell repair streams still continue their own generators
    bit-identically.  ``tuning`` contributes the strategy and actuation
    precision; the grid overrides reach and budget cell by cell.  The
    zero-shift row is the exact untuned baseline (a no-op tuner repairs
    nothing by contract).
    """
    base = tuning if tuning is not None else TuningOptions()
    arch = get_architecture(topology)
    lattice = arch.lattice(num_qubits)
    cells = [(shift, budget) for shift in shifts_mhz for budget in budgets]
    kwargs_list = [
        dict(
            sigma_ghz=sigma_ghz,
            step_ghz=step_ghz,
            num_qubits=num_qubits,
            batch_size=batch_size,
            seed=seed,
            thresholds=None,
            lattice=lattice,
            tuning=TuningOptions(
                tuner=dataclasses.replace(
                    base.tuner,
                    max_shift_ghz=shift / 1000.0,
                    max_tunes_per_qubit=budget,
                ),
                strategy=base.strategy,
            ),
            topology=arch.name,
        )
        for shift, budget in cells
    ]
    points = run_calls(simulate_yield_point, kwargs_list, engine, "yield.budget")
    result = RepairBudgetResult(
        topology=arch.name,
        num_qubits=num_qubits,
        sigma_ghz=sigma_ghz,
        batch_size=batch_size,
        strategy=base.strategy.name,
    )
    for (shift, budget), point in zip(cells, points):
        result.rows.append(
            RepairBudgetRow(
                max_shift_mhz=shift,
                budget=budget,
                as_fab_yield=point.as_fab_yield,
                repaired_yield=point.repaired_yield,
                num_repaired=point.num_repaired,
                tuned_qubits=point.tuned_qubits,
                total_tunes=point.total_tunes,
            )
        )
    return result
