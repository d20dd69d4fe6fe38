"""Cross-topology comparison experiments (beyond the paper's figures).

Two registry experiments put the pluggable architecture layer to work:

``topoyield``
    The Fig. 4 yield-vs-size sweep run once per registered topology at a
    common fabrication precision and detuning step.  Denser lattices
    impose more simultaneous collision constraints per qubit, so the
    curves collapse in topology order — square (degree 4, five packed
    frequencies) first, heavy-hex (degree 3) next, the chain (degree 2)
    last — making the collision phase transition's sharpness directly
    comparable across scenarios.

``topomcm``
    End-to-end chiplet -> KGD bin -> MCM assembly for every topology:
    fabricate a batch of chiplets, screen them, stitch the survivors
    into a small MCM grid, and compare collision-free yield, assembled
    module count and post-assembly yield side by side.  Runs at the
    paper's scaling-target precision (sigma = 0.006 GHz) so that even
    the collision-prone square lattice produces a populated bin.

Both experiments submit their per-topology work through the execution
engine when one is supplied, with positional child seeds so results are
independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.architecture import ARCHITECTURES, get_architecture
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin, post_assembly_yield
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import (
    FabricationModel,
    SIGMA_LASER_TUNED_GHZ,
    SIGMA_SCALING_TARGET_GHZ,
)
from repro.core.fidelity import default_link_scenarios
from repro.core.mcm import MCMDesign
from repro.core.yield_model import (
    YieldResult,
    simulate_yield_point,
)
from repro.device.calibration import washington_cx_model
from repro.engine.dispatch import run_calls
from repro.engine.seeding import spawn_seeds
from repro.stats import StatsOptions
from repro.tuning import TuningOptions

__all__ = [
    "TopologyYieldResult",
    "TopologyMCMRow",
    "TopologyMCMResult",
    "run_topology_yield_comparison",
    "run_topology_mcm_comparison",
]

#: Device sizes probed by the cross-topology yield sweep.
DEFAULT_COMPARISON_SIZES = (5, 10, 20, 40, 65, 100, 200, 300, 500)


def _seeds_by_topology(seed: int | None) -> dict[str, int | None]:
    """One child seed per *registered* topology, keyed by name.

    Seeds derive from each topology's position in the registry — never
    from its position in a caller-filtered selection — so restricting a
    comparison to a subset (``--topology square``) reproduces exactly
    the rows of the full run at the same master seed.
    """
    names = ARCHITECTURES.names()
    return dict(zip(names, spawn_seeds(seed, len(names))))


@dataclass
class TopologyYieldResult:
    """One yield-vs-size curve per registered topology.

    Attributes
    ----------
    sizes:
        Device sizes along every curve.
    sigma_ghz, step_ghz:
        Shared fabrication precision and detuning step.
    curves:
        Topology name -> per-size :class:`YieldResult` points.
    """

    sizes: tuple[int, ...]
    sigma_ghz: float
    step_ghz: float
    curves: dict[str, list[YieldResult]] = field(default_factory=dict)

    def yields(self, topology: str) -> list[float]:
        """Plain yield fractions of one topology's curve."""
        return [p.collision_free_yield for p in self.curves[topology]]

    def half_yield_size(self, topology: str) -> int | None:
        """Smallest probed size whose yield drops below one half.

        A proxy for the collision phase-transition location: the denser
        the topology, the earlier the curve crosses 0.5.  ``None`` when
        the curve never drops below a half over the probed sizes.
        """
        for point in self.curves[topology]:
            if point.collision_free_yield < 0.5:
                return point.num_qubits
        return None

    def format_table(self) -> str:
        """Render the per-topology yield grid (one row per topology)."""
        header = ["topology", "n_half"] + [str(s) for s in self.sizes]
        body = []
        for topology in self.curves:
            half = self.half_yield_size(topology)
            body.append(
                [topology, "-" if half is None else str(half)]
                + [f"{y:.3f}" for y in self.yields(topology)]
            )
        return format_table(header, body)


def run_topology_yield_comparison(
    topologies: tuple[str, ...] | None = None,
    sizes: tuple[int, ...] = DEFAULT_COMPARISON_SIZES,
    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ,
    step_ghz: float = 0.06,
    batch_size: int = 1000,
    seed: int = 7,
    engine=None,
    stats: StatsOptions | None = None,
    tuning: TuningOptions | None = None,
) -> TopologyYieldResult:
    """Collision-free yield vs. size for every registered topology.

    Every (topology, size) point becomes one engine task and the whole
    grid is submitted as a single flat batch, so a parallel engine sees
    the full width of the comparison at once — no barrier between
    topologies.  Seeding is two-level and position-stable: each
    topology's curve seed comes from its position in the *registry* (see
    :func:`_seeds_by_topology`), and each curve spawns per-size point
    seeds from it, so results are bit-identical however the work is
    executed or filtered.
    """
    curve_seeds = _seeds_by_topology(seed)
    names = tuple(
        get_architecture(topology).name
        for topology in (topologies if topologies else ARCHITECTURES.names())
    )
    result = TopologyYieldResult(sizes=sizes, sigma_ghz=sigma_ghz, step_ghz=step_ghz)
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
                    confidence=stats.confidence,
                    ci_method=stats.method,
                    topology=topology,
                    tuning=tuning,
                )
            )
    points = run_calls(simulate_yield_point, kwargs_list, engine, "yield.point")
    for index, topology in enumerate(names):
        result.curves[topology] = points[index * len(sizes) : (index + 1) * len(sizes)]
    return result


@dataclass
class TopologyMCMRow:
    """Assembly outcome for one topology's chiplet -> MCM pipeline."""

    topology: str
    chiplet_qubits: int
    mcm_qubits: int
    grid: tuple[int, int]
    num_links: int
    chiplet_yield: float
    num_mcms: int
    chiplets_used: int
    chiplets_set_aside: int
    post_assembly_yield: float
    average_error: float


@dataclass
class TopologyMCMResult:
    """Side-by-side MCM assembly comparison across topologies."""

    batch_size: int
    sigma_ghz: float
    rows: list[TopologyMCMRow] = field(default_factory=list)

    def format_table(self) -> str:
        """Render one row per topology."""
        header = [
            "topology",
            "chiplet",
            "grid",
            "links",
            "chiplet yield",
            "MCMs",
            "post-assembly yield",
            "E_avg",
        ]
        body = []
        for row in self.rows:
            eavg = "-" if np.isnan(row.average_error) else f"{row.average_error:.4f}"
            body.append(
                [
                    row.topology,
                    row.chiplet_qubits,
                    f"{row.grid[0]}x{row.grid[1]}",
                    row.num_links,
                    f"{row.chiplet_yield:.3f}",
                    row.num_mcms,
                    f"{row.post_assembly_yield:.4f}",
                    eavg,
                ]
            )
        return format_table(header, body)


def compute_topology_mcm_row(
    topology: str,
    chiplet_qubits: int,
    grid: tuple[int, int],
    batch_size: int,
    sigma_ghz: float,
    seed: int,
    cx_model=None,
) -> TopologyMCMRow:
    """The full chiplet -> bin -> MCM pipeline for one topology.

    A module-level function of picklable arguments so the comparison can
    fan out one task per topology through the engine.
    """
    arch = get_architecture(topology)
    design = ChipletDesign.build(chiplet_qubits, topology=arch.name)
    mcm_design = MCMDesign.build(design, *grid)
    if cx_model is None:
        cx_model = washington_cx_model(seed=11)
    rng = np.random.default_rng(seed)
    chiplet_bin = fabricate_chiplet_bin(
        design,
        FabricationModel(sigma_ghz=sigma_ghz),
        cx_model,
        batch_size=batch_size,
        rng=rng,
    )
    scenario = default_link_scenarios()[0]
    assembly = assemble_mcms(chiplet_bin, mcm_design, scenario.link_model, rng=rng)
    errors = [m.average_error for m in assembly.mcms]
    return TopologyMCMRow(
        topology=arch.name,
        chiplet_qubits=chiplet_qubits,
        mcm_qubits=mcm_design.num_qubits,
        grid=grid,
        num_links=mcm_design.num_links,
        chiplet_yield=chiplet_bin.collision_free_yield,
        num_mcms=assembly.num_mcms,
        chiplets_used=assembly.chiplets_used,
        chiplets_set_aside=assembly.chiplets_set_aside,
        post_assembly_yield=post_assembly_yield(assembly, batch_size),
        average_error=float(np.mean(errors)) if errors else float("nan"),
    )


def run_topology_mcm_comparison(
    topologies: tuple[str, ...] | None = None,
    chiplet_qubits: int = 18,
    grid: tuple[int, int] = (1, 2),
    batch_size: int = 1000,
    sigma_ghz: float = SIGMA_SCALING_TARGET_GHZ,
    seed: int = 7,
    engine=None,
) -> TopologyMCMResult:
    """Compare the chiplet -> MCM pipeline output across topologies.

    Defaults: 18-qubit chiplets (a multiple of three, so the ring
    chain's period-3 plan leaves a free link slot at its ends) in a
    ``1x2`` module at the paper's scaling-target precision.  One engine
    task per topology, each with a registry-position child seed (stable
    under topology filtering, see :func:`_seeds_by_topology`).
    """
    curve_seeds = _seeds_by_topology(seed)
    names = tuple(
        get_architecture(topology).name
        for topology in (topologies if topologies else ARCHITECTURES.names())
    )
    kwargs_list = [
        dict(
            topology=topology,
            chiplet_qubits=chiplet_qubits,
            grid=grid,
            batch_size=batch_size,
            sigma_ghz=sigma_ghz,
            seed=curve_seeds[topology],
        )
        for topology in names
    ]
    rows = run_calls(compute_topology_mcm_row, kwargs_list, engine, "topology.mcm")
    return TopologyMCMResult(batch_size=batch_size, sigma_ghz=sigma_ghz, rows=rows)
