"""``appsweep`` — application fidelity across topology x routing x repair.

The first experiment exercising all four prior subsystems at once: the
pluggable architecture layer supplies the device topologies, the
post-fabrication repair stage supplies the tuned device axis, the
compiler's routing registry supplies the routing-strategy axis, and the
execution engine runs both waves (device construction, then
compile+score) as cached, seeded task batches.

For every registered topology the driver fabricates one chiplet batch
(at the paper's scaling-target precision, so even the collision-prone
square lattice yields), assembles a small MCM grid from the as-fab bin
and — from the *same* fabricated dies — from the repaired bin, and
scores a top-k ensemble of the assembled devices on a benchmark subset
under every registered routing strategy.  Rows report the ensemble's
median log10 fidelity with an order-statistic spread interval
(:func:`repro.stats.intervals.median_interval`) and the fidelity ratio against
the untuned/basic-routing baseline of the same (topology, benchmark).

Seeding is registry-position-stable at every level (topologies, then
benchmarks), so filtering any axis (``--topology``, ``--benchmarks``,
``--routing``) reproduces exactly the corresponding rows of the full
sweep at the same master seed, and ``--jobs N`` is bit-identical to a
sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isinf, isnan

import numpy as np

from repro.analysis.appeval import (
    EnsembleSummary,
    benchmark_seeds,
    run_compile_jobs,
    summarise_ensemble,
)
from repro.analysis.reporting import format_table
from repro.core.architecture import ARCHITECTURES, get_architecture
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin, rank_devices
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import FabricationModel, SIGMA_SCALING_TARGET_GHZ
from repro.core.fidelity import default_link_scenarios
from repro.core.mcm import MCMDesign
from repro.device.calibration import washington_cx_model
from repro.device.device import Device
from repro.engine.dispatch import run_calls
from repro.engine.seeding import spawn_seed_at, spawn_seeds
from repro.tuning.repair import TuningOptions

__all__ = ["AppSweepRow", "AppSweepResult", "build_appsweep_devices", "run_appsweep"]

#: Benchmark subset compiled by default (one chain, one random-graph,
#: one oracle circuit — the three routing-behaviour classes).
DEFAULT_APPSWEEP_BENCHMARKS = ("bv", "qaoa", "ghz")

#: Ensemble size scored per configuration.
DEFAULT_TOP_K = 3


def build_appsweep_devices(
    topology: str,
    chiplet_qubits: int,
    grid: tuple[int, int],
    batch_size: int,
    sigma_ghz: float,
    seed: int | None,
    top_k: int,
    tuning: TuningOptions | None = None,
) -> list[Device]:
    """Fabricate, (optionally) repair, assemble; return the top-k devices.

    A module-level function of picklable arguments — one engine task per
    (topology, repair-axis) point.  The tuned and untuned variants share
    ``seed``, so they screen the *same* fabricated dies; only the repair
    stage differs.
    """
    arch = get_architecture(topology)
    design = ChipletDesign.build(chiplet_qubits, topology=arch.name)
    mcm_design = MCMDesign.build(design, *grid)
    cx_model = washington_cx_model(seed=11)
    rng = np.random.default_rng(seed)
    chiplet_bin = fabricate_chiplet_bin(
        design,
        FabricationModel(sigma_ghz=sigma_ghz),
        cx_model,
        batch_size=batch_size,
        rng=rng,
        tuning=tuning,
    )
    scenario = default_link_scenarios()[0]
    assembly = assemble_mcms(chiplet_bin, mcm_design, scenario.link_model, rng=rng)
    axis = "tuned" if tuning is not None else "as-fab"
    return rank_devices(assembly.mcms, top_k, f"{arch.name}-{axis}")


@dataclass
class AppSweepRow:
    """One (topology, repair, routing, benchmark) configuration's scores."""

    topology: str
    tuned: bool
    routing: str
    benchmark: str
    width: int
    num_devices: int
    median_log10_fidelity: float
    spread_low: float
    spread_high: float
    median_swaps: float
    ratio_vs_baseline: float


@dataclass
class AppSweepResult:
    """Application-fidelity grid over topology x repair x routing."""

    chiplet_qubits: int
    grid: tuple[int, int]
    sigma_ghz: float
    batch_size: int
    top_k: int
    utilisation: float
    rows: list[AppSweepRow] = field(default_factory=list)

    def format_table(self) -> str:
        """Render every configuration row."""
        header = [
            "topology", "devices", "routing", "benchmark",
            "ensemble", "median log10F", "spread", "swaps", "ratio",
        ]
        body = []
        for row in self.rows:
            if isnan(row.median_log10_fidelity):
                median = "-"
                spread = "-"
            else:
                median = f"{row.median_log10_fidelity:.3f}"
                spread = (
                    f"[{row.spread_low:.3f}, {row.spread_high:.3f}]"
                    if not isnan(row.spread_low)
                    else "-"
                )
            if isnan(row.ratio_vs_baseline):
                ratio = "-"
            elif isinf(row.ratio_vs_baseline):
                ratio = "inf"
            else:
                ratio = f"{row.ratio_vs_baseline:.3g}"
            body.append(
                [
                    row.topology,
                    "tuned" if row.tuned else "as-fab",
                    row.routing,
                    row.benchmark,
                    row.num_devices,
                    median,
                    spread,
                    "-" if isnan(row.median_swaps) else f"{row.median_swaps:g}",
                    ratio,
                ]
            )
        return format_table(header, body)


def run_appsweep(
    topologies: tuple[str, ...] | None = None,
    benchmarks: tuple[str, ...] | None = None,
    routings: tuple[str, ...] | None = None,
    chiplet_qubits: int = 18,
    grid: tuple[int, int] = (1, 2),
    batch_size: int = 400,
    sigma_ghz: float = SIGMA_SCALING_TARGET_GHZ,
    utilisation: float = 0.8,
    top_k: int = DEFAULT_TOP_K,
    seed: int = 7,
    engine=None,
    tuning: TuningOptions | None = None,
) -> AppSweepResult:
    """Application-level fidelity across topology x routing x repair.

    Parameters
    ----------
    topologies:
        Registered topology names (default: every registered topology).
    benchmarks:
        Benchmark names to compile
        (default: :data:`DEFAULT_APPSWEEP_BENCHMARKS`).
    routings:
        Registered routing strategy names (default: every registered
        strategy).  The ratio baseline — the untuned ``"basic"`` axis —
        is compiled even when this filter excludes it from the emitted
        rows, so the ratio column of a filtered sweep matches the full
        run's.
    chiplet_qubits, grid:
        Chiplet size and MCM grid (defaults mirror ``topomcm``: 18-qubit
        chiplets so the ring chain's period-3 plan fits, in a 1x2
        module).
    batch_size:
        Fabricated dies per (topology, repair-axis) point.
    sigma_ghz:
        Fabrication precision (default: the paper's scaling target,
        0.006 GHz, so every topology yields).
    utilisation:
        Benchmark width as a fraction of device qubits (paper: 80 %).
    top_k:
        Devices per ensemble (the ``count`` of
        :meth:`~repro.analysis.study.MCMResult.top_devices`-style
        ranking).
    seed:
        Master seed; see the module docstring for the derivation tree.
    engine:
        Optional :class:`repro.engine.runner.ExecutionEngine` both waves fan
        out through.
    tuning:
        Repair options for the tuned axis (default: greedy local repair
        at the tuner-model defaults).
    """
    from repro.compiler.pipeline import ROUTING_STRATEGIES

    topo_names = tuple(
        get_architecture(name).name
        for name in (topologies if topologies else ARCHITECTURES.names())
    )
    bench_names = tuple(benchmarks) if benchmarks else DEFAULT_APPSWEEP_BENCHMARKS
    routing_names = tuple(routings if routings else ROUTING_STRATEGIES.names())
    for name in routing_names:
        ROUTING_STRATEGIES.get(name)  # unknown names fail before any work
    # The ratio baseline is always the untuned default-routing axis; it
    # is compiled even when ``routings`` filters it out of the emitted
    # rows, so a filtered sweep's ratio column matches the full run's.
    baseline_routing = "basic" if "basic" in ROUTING_STRATEGIES else routing_names[0]
    compile_routings = tuple(dict.fromkeys((baseline_routing, *routing_names)))
    tuned_options = tuning if tuning is not None else TuningOptions.build()

    # Registry-position-stable seed tree: one child per registered
    # topology; below it, child 0 feeds fabrication and child 1 spawns
    # the per-benchmark circuit seeds.
    registry_names = ARCHITECTURES.names()
    topo_seeds = dict(zip(registry_names, spawn_seeds(seed, len(registry_names))))

    # Wave 1: device ensembles, one task per (topology, repair axis).
    device_jobs: list[tuple[str, bool]] = []
    device_kwargs: list[dict] = []
    for topology in topo_names:
        fab_seed = spawn_seed_at(topo_seeds[topology], 0)
        for tuned in (False, True):
            device_jobs.append((topology, tuned))
            device_kwargs.append(
                dict(
                    topology=topology,
                    chiplet_qubits=chiplet_qubits,
                    grid=grid,
                    batch_size=batch_size,
                    sigma_ghz=sigma_ghz,
                    seed=fab_seed,
                    top_k=top_k,
                    tuning=tuned_options if tuned else None,
                )
            )
    ensembles = dict(
        zip(
            device_jobs,
            run_calls(
                build_appsweep_devices, device_kwargs, engine, name="appsweep.devices"
            ),
        )
    )

    # Wave 2: compile+score, one task per (config, benchmark, device).
    mcm_qubits = chiplet_qubits * grid[0] * grid[1]
    width = max(2, int(round(utilisation * mcm_qubits)))
    compile_kwargs: list[dict] = []
    compile_slices: dict[tuple[str, bool, str, str], list[int]] = {}
    for topology in topo_names:
        circuit_seeds = benchmark_seeds(spawn_seed_at(topo_seeds[topology], 1))
        for tuned in (False, True):
            devices = ensembles[(topology, tuned)]
            # Only the untuned axis needs the (possibly filtered-out)
            # baseline routing compiled — it anchors every ratio.
            for routing in (compile_routings if not tuned else routing_names):
                for benchmark in bench_names:
                    indices = []
                    for device in devices:
                        indices.append(len(compile_kwargs))
                        compile_kwargs.append(
                            dict(
                                benchmark=benchmark,
                                width=width,
                                circuit_seed=circuit_seeds[benchmark],
                                device=device,
                                routing=routing,
                            )
                        )
                    compile_slices[(topology, tuned, routing, benchmark)] = indices
    scores = run_compile_jobs(compile_kwargs, engine)

    summaries: dict[tuple[str, bool, str, str], EnsembleSummary] = {
        key: summarise_ensemble([scores[i] for i in indices])
        for key, indices in compile_slices.items()
    }

    result = AppSweepResult(
        chiplet_qubits=chiplet_qubits,
        grid=grid,
        sigma_ghz=sigma_ghz,
        batch_size=batch_size,
        top_k=top_k,
        utilisation=utilisation,
    )
    for topology in topo_names:
        for tuned in (False, True):
            for routing in routing_names:
                for benchmark in bench_names:
                    summary = summaries[(topology, tuned, routing, benchmark)]
                    baseline = summaries.get(
                        (topology, False, baseline_routing, benchmark)
                    )
                    spread = summary.spread
                    result.rows.append(
                        AppSweepRow(
                            topology=topology,
                            tuned=tuned,
                            routing=routing,
                            benchmark=benchmark,
                            width=width,
                            num_devices=summary.num_devices,
                            median_log10_fidelity=summary.median_log10_fidelity,
                            spread_low=spread.low if spread else float("nan"),
                            spread_high=spread.high if spread else float("nan"),
                            median_swaps=summary.median_swaps,
                            ratio_vs_baseline=(
                                1.0
                                if (not tuned and routing == baseline_routing
                                    and not isnan(summary.median_log10_fidelity)
                                    and summary.median_log10_fidelity != -inf)
                                else summary.ratio_vs(baseline)
                            ),
                        )
                    )
    return result
