"""The experiment registry behind ``python -m repro run <experiment>``.

Each figure/table driver is registered under its paper name with a
uniform runner signature::

    runner(engine, seed=None, batch_size=None, full=False, stats=None,
           topology=None, tuning=None, benchmarks=None, routing=None)
        -> (result, text)

``engine`` is an :class:`repro.engine.ExecutionEngine` (or ``None`` for
plain in-process execution), ``seed`` overrides the experiment's default
master seed, ``batch_size`` scales the Monte-Carlo batches, ``full``
requests the paper-sized configuration sweep where one exists,
``stats`` is an optional :class:`repro.stats.StatsOptions` (the CLI's
``--chunk-size`` / ``--ci-target`` / ``--max-samples``) threaded into
the yield Monte-Carlo where the experiment has one, ``topology``
selects a registered architecture (the CLI's ``--topology``) on the
experiments marked ``topology_aware``, and ``tuning`` is an optional
:class:`repro.tuning.TuningOptions` (the CLI's ``--tuning`` /
``--max-shift-mhz`` / ``--repair-budget``) routing the yield
Monte-Carlo through the post-fabrication repair stage on experiments
marked ``tuning_aware``.  ``benchmarks`` (the CLI's ``--benchmarks``)
restricts the compiled benchmark set and ``routing`` (the CLI's
``--routing``) selects a registered routing strategy on experiments
marked ``compiler_aware``.  ``text`` is the human-readable rendering
the CLI prints.
"""

from __future__ import annotations

import numbers
from typing import Any

from repro.analysis.figures import (
    run_appsweep,
    run_fig3_processor_trends,
    run_repair_budget_sweep,
    run_topology_mcm_comparison,
    run_topology_yield_comparison,
    run_tuned_yield_comparison,
    run_fig4_yield_sweep,
    run_fig6_configurations,
    run_fig7_detuning_model,
    run_fig8_yield_comparison,
    run_fig9_infidelity_heatmap,
    run_fig10_applications,
    run_sec5c_fabrication_output,
    run_table1_collision_criteria,
    run_table2_compiled_benchmarks,
)
from repro.analysis.reporting import format_table
from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.circuits.benchmarks import BENCHMARK_NAMES
from repro.core.chiplet import PAPER_CHIPLET_SIZES
from repro.engine import ExperimentRegistry

__all__ = [
    "EXPERIMENTS",
    "build_study",
    "RUNNER_OPTION_NAMES",
    "INT_OPTION_MINIMUMS",
    "normalize_runner_params",
]

EXPERIMENTS = ExperimentRegistry()

#: Keyword options every registered runner accepts (the uniform runner
#: signature documented above).  The service layer validates submitted
#: job parameters against this list and the CLI maps its flags onto it.
RUNNER_OPTION_NAMES = (
    "seed",
    "batch_size",
    "full",
    "stats",
    "topology",
    "tuning",
    "benchmarks",
    "routing",
)

#: Smallest accepted value of each integer runner option.  The CLI's
#: ``--seed``/``--batch`` types and :func:`normalize_runner_params` both
#: enforce it, so bad input fails at the edge (exit 2 / HTTP 400).
INT_OPTION_MINIMUMS = {"seed": 0, "batch_size": 1}


def normalize_runner_params(params: dict[str, Any] | None) -> dict[str, Any]:
    """Canonicalise a runner-options mapping for submission/coalescing.

    Unknown keys raise ``ValueError`` with a did-you-mean suggestion, as
    does an integer option (:data:`INT_OPTION_MINIMUMS`) that is not an
    integer or is below its minimum; ``None`` values are dropped (an
    explicit ``seed=None`` means "use the experiment default", exactly
    like omitting it); ``benchmarks`` lists become tuples; keys are
    sorted.  Two submissions that would drive a runner identically
    therefore normalise to the same dict — the basis of the service's
    request-coalescing key.
    """
    from repro.engine.registry import did_you_mean

    cleaned: dict[str, Any] = {}
    for key in sorted(params or {}):
        if key not in RUNNER_OPTION_NAMES:
            suggestion = did_you_mean(key, RUNNER_OPTION_NAMES)
            raise ValueError(
                f"unknown experiment parameter {key!r}{suggestion} "
                f"(known: {', '.join(RUNNER_OPTION_NAMES)})"
            )
        value = (params or {})[key]
        if value is None:
            continue
        minimum = INT_OPTION_MINIMUMS.get(key)
        if minimum is not None and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < minimum
        ):
            raise ValueError(
                f"experiment parameter {key!r} must be an integer of at "
                f"least {minimum}, got {value!r}"
            )
        if key == "benchmarks":
            value = tuple(value)
        cleaned[key] = value
    return cleaned

#: Reduced-batch default so CLI runs finish in minutes on a laptop; the
#: paper's 10 000-die batches are requested with ``--batch 10000``.
DEFAULT_STUDY_BATCH = 2000

#: Chiplet sizes for the study-backed figures at reduced (CLI) scale.
CLI_CHIPLET_SIZES = (10, 20, 40)


def build_study(
    engine=None,
    seed: int | None = None,
    batch_size: int | None = None,
    full: bool = False,
) -> ArchitectureStudy:
    """An engine-aware study sized for CLI runs (paper-sized with ``full``)."""
    batch = batch_size or (10_000 if full else DEFAULT_STUDY_BATCH)
    config = StudyConfig(
        chiplet_batch_size=batch,
        monolithic_batch_size=batch,
        seed=seed if seed is not None else 2022,
        chiplet_sizes=PAPER_CHIPLET_SIZES if full else CLI_CHIPLET_SIZES,
    )
    return ArchitectureStudy(config, engine=engine)


def _fig3(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    result = run_fig3_processor_trends(seed=seed if seed is not None else 11)
    return result, result.format_table()


def _table1(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    result = run_table1_collision_criteria()
    return result, result.format_table()


def _fig4(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    result = run_fig4_yield_sweep(
        batch_size=batch_size or 1000,
        seed=seed if seed is not None else 7,
        engine=engine,
        stats=stats,
        topology=topology,
        tuning=tuning,
    )
    if stats is not None and not stats.is_default:
        text = (
            result.format_ci_table()
            + f"\ntotal Monte-Carlo samples: {result.samples_used()}"
        )
        return result, text
    return result, result.format_table()


def _fig6(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    points = run_fig6_configurations(
        batch_size=batch_size or 100_000,
        seed=seed if seed is not None else 7,
        engine=engine,
    )
    text = format_table(
        ["grid", "log10(configs)", "max MCMs"],
        [
            [f"{p.grid[0]}x{p.grid[1]}", f"{p.log10_configurations:.1f}", p.max_mcms]
            for p in points
        ],
    )
    return points, text


def _sec5c(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    result = run_sec5c_fabrication_output(
        batch_size=batch_size or 1000,
        seed=seed if seed is not None else 7,
        engine=engine,
        stats=stats,
    )
    text = (
        f"monolithic devices: {result.monolithic_devices:.1f}\n"
        f"MCM devices (upper bound): {result.mcm_devices:.1f}\n"
        f"fabrication-output gain: {result.gain:.2f}x"
    )
    if result.gain_ci is not None:
        low, high = result.gain_ci
        high_text = "inf" if high == float("inf") else f"{high:.2f}"
        text += f"\ngain CI (conservative): [{low:.2f}, {high_text}]x"
    return result, text


def _fig7(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    result = run_fig7_detuning_model(seed=seed if seed is not None else 11)
    summary = (
        f"median {result.median:.4f}, mean {result.mean:.4f} "
        f"({result.num_points} points)\n"
    )
    return result, summary + result.format_table()


def _fig8(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    study = build_study(engine, seed, batch_size, full)
    result = run_fig8_yield_comparison(study)
    return result, result.format_table()


def _fig9(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    study = build_study(engine, seed, batch_size, full)
    result = run_fig9_infidelity_heatmap(study)
    sections = []
    for scenario in study.scenarios:
        sections.append(f"[scenario {scenario.name}]")
        sections.append(result.format_table(scenario.name))
    return result, "\n".join(sections)


def _fig10(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    study = build_study(engine, seed, batch_size, full)
    result = run_fig10_applications(
        study,
        square_only=not full,
        benchmarks=tuple(benchmarks) if benchmarks else BENCHMARK_NAMES,
        seed=seed if seed is not None else 5,
        engine=engine,
        routing=routing or "basic",
    )
    return result, result.format_table()


def _appsweep(
    engine, seed=None, batch_size=None, full=False, stats=None, topology=None,
    tuning=None, benchmarks=None, routing=None,
) -> tuple[Any, str]:
    result = run_appsweep(
        topologies=(topology,) if topology else None,
        benchmarks=tuple(benchmarks) if benchmarks else None,
        routings=(routing,) if routing else None,
        batch_size=batch_size or 400,
        seed=seed if seed is not None else 7,
        engine=engine,
        tuning=tuning,
    )
    return result, result.format_table()


def _topoyield(
    engine, seed=None, batch_size=None, full=False, stats=None, topology=None,
    tuning=None, benchmarks=None, routing=None,
) -> tuple[Any, str]:
    topologies = (topology,) if topology else None
    result = run_topology_yield_comparison(
        topologies=topologies,
        batch_size=batch_size or 1000,
        seed=seed if seed is not None else 7,
        engine=engine,
        stats=stats,
        tuning=tuning,
    )
    return result, result.format_table()


def _topomcm(
    engine, seed=None, batch_size=None, full=False, stats=None, topology=None,
    tuning=None, benchmarks=None, routing=None,
) -> tuple[Any, str]:
    topologies = (topology,) if topology else None
    result = run_topology_mcm_comparison(
        topologies=topologies,
        batch_size=batch_size or 1000,
        seed=seed if seed is not None else 7,
        engine=engine,
    )
    return result, result.format_table()


def _tunedyield(
    engine, seed=None, batch_size=None, full=False, stats=None, topology=None,
    tuning=None, benchmarks=None, routing=None,
) -> tuple[Any, str]:
    topologies = (topology,) if topology else None
    result = run_tuned_yield_comparison(
        topologies=topologies,
        batch_size=batch_size or 400,
        seed=seed if seed is not None else 7,
        engine=engine,
        stats=stats,
        tuning=tuning,
    )
    return result, result.format_table()


def _repairbudget(
    engine, seed=None, batch_size=None, full=False, stats=None, topology=None,
    tuning=None, benchmarks=None, routing=None,
) -> tuple[Any, str]:
    result = run_repair_budget_sweep(
        topology=topology,
        batch_size=batch_size or 400,
        seed=seed if seed is not None else 7,
        engine=engine,
        tuning=tuning,
    )
    return result, result.format_table()


def _table2(engine, seed=None, batch_size=None, full=False, stats=None, topology=None, tuning=None, benchmarks=None, routing=None) -> tuple[Any, str]:
    sizes = (10, 20, 40, 60, 90) if full else (10, 20, 40)
    result = run_table2_compiled_benchmarks(
        chiplet_sizes=sizes,
        seed=seed if seed is not None else 5,
        engine=engine,
    )
    return result, result.format_table()


EXPERIMENTS.register(
    "fig3", "Fig. 3(b): CX infidelity distributions vs. processor size", _fig3
)
EXPERIMENTS.register(
    "table1", "Table I: the seven collision criteria, demonstrated", _table1
)
EXPERIMENTS.register(
    "fig4",
    "Fig. 4: collision-free yield vs. qubits (parallel Monte-Carlo grid)",
    _fig4,
    aliases=("yield",),
    stats_aware=True,
    topology_aware=True,
    tuning_aware=True,
)
EXPERIMENTS.register(
    "fig6", "Fig. 6: configuration counting and assembled-MCM bound", _fig6
)
EXPERIMENTS.register(
    "sec5c",
    "Section V-C: fabrication-output gain of chiplets",
    _sec5c,
    stats_aware=True,
)
EXPERIMENTS.register(
    "fig7", "Fig. 7: detuning-binned empirical CX error model", _fig7
)
EXPERIMENTS.register(
    "fig8",
    "Fig. 8: MCM vs. monolithic yield comparison (engine-prefetched)",
    _fig8,
    aliases=("mcm",),
)
EXPERIMENTS.register(
    "fig9", "Fig. 9: average-infidelity heat-maps, four link scenarios", _fig9
)
EXPERIMENTS.register(
    "fig10",
    "Fig. 10: application-level fidelity ratios (engine-parallel compiles)",
    _fig10,
    aliases=("apps",),
    compiler_aware=True,
)
EXPERIMENTS.register(
    "table2", "Table II: compiled benchmark gate counts on 2x2 MCMs", _table2
)
EXPERIMENTS.register(
    "topoyield",
    "Cross-topology yield-vs-size comparison (heavy-hex / square / ring)",
    _topoyield,
    aliases=("topologies",),
    stats_aware=True,
    topology_aware=True,
    tuning_aware=True,
)
EXPERIMENTS.register(
    "topomcm",
    "Cross-topology chiplet -> MCM assembly comparison",
    _topomcm,
    topology_aware=True,
)
EXPERIMENTS.register(
    "tunedyield",
    "As-fab vs. post-fabrication-repaired yield curves per topology",
    _tunedyield,
    aliases=("repair",),
    stats_aware=True,
    topology_aware=True,
    tuning_aware=True,
)
EXPERIMENTS.register(
    "repairbudget",
    "Repaired yield vs. tuner max-shift and per-qubit budget sweep",
    _repairbudget,
    aliases=("budget",),
    topology_aware=True,
    tuning_aware=True,
)
EXPERIMENTS.register(
    "appsweep",
    "Application fidelity across topology x routing x repair ensembles",
    _appsweep,
    aliases=("appeval",),
    topology_aware=True,
    tuning_aware=True,
    compiler_aware=True,
)
