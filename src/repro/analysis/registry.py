"""The experiment registry and the one table of runner options.

Each figure/table driver is registered under its paper name as a runner::

    runner(engine, **options) -> (result, text)

whose keyword parameters are exactly the options it reads, each with its
default (``def _fig4(engine, seed=7, batch_size=1000, stats=None,
topology=None, tuning=None)``).  ``engine`` is an
:class:`repro.engine.runner.ExecutionEngine` (or ``None`` for plain in-process
execution) and ``text`` is the human-readable rendering the CLI prints.
An explicit ``None`` option means the runner's default, exactly like
omitting it.

:data:`RUNNER_OPTIONS` is the one table of options the CLI and the
service accept.  A row's name is the service parameter and, spelled
with dashes, the ``run`` flag (``batch_size`` keeps its short ``--batch``).
:func:`parse_runner_options` turns raw values into a runner's keyword
arguments: ``chunk_size``/``ci_target``/``max_samples`` become the
runner's ``stats`` (:class:`repro.stats.adaptive.StatsOptions`) and
``tuning``/``max_shift_mhz``/``repair_budget`` its ``tuning``
(:class:`repro.tuning.repair.TuningOptions`).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.figures.appsweep import run_appsweep
from repro.analysis.figures.fig10_apps import run_fig10_applications
from repro.analysis.figures.fig3_trends import run_fig3_processor_trends
from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.analysis.figures.fig6_configurations import run_fig6_configurations
from repro.analysis.figures.fig7_detuning import run_fig7_detuning_model
from repro.analysis.figures.fig8_mcm import run_fig8_yield_comparison
from repro.analysis.figures.fig9_heatmaps import run_fig9_infidelity_heatmap
from repro.analysis.figures.sec5c_output import run_sec5c_fabrication_output
from repro.analysis.figures.tables import (
    run_table1_collision_criteria,
    run_table2_compiled_benchmarks,
)
from repro.analysis.figures.topologies import (
    run_topology_mcm_comparison,
    run_topology_yield_comparison,
)
from repro.analysis.figures.tuning import (
    run_repair_budget_sweep,
    run_tuned_yield_comparison,
)
from repro.analysis.reporting import format_table
from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.circuits.benchmarks import BENCHMARK_NAMES, BENCHMARKS
from repro.compiler.pipeline import ROUTING_STRATEGIES
from repro.core.architecture import ARCHITECTURES
from repro.core.chiplet import PAPER_CHIPLET_SIZES
from repro.engine.registry import ExperimentSpec, Registry
from repro.stats.adaptive import StatsOptions
from repro.tuning.repair import TuningOptions
from repro.tuning.strategies import STRATEGIES

__all__ = [
    "EXPERIMENTS",
    "RUNNER_OPTIONS",
    "RunnerOption",
    "build_study",
    "parse_runner_options",
]

EXPERIMENTS: Registry[ExperimentSpec] = Registry("experiment")


# ---------------------------------------------------------------------- #
# Runner options
# ---------------------------------------------------------------------- #
def _integer(minimum: int | None = None) -> Callable[[str, Any], int]:
    def check(name: str, value: Any) -> int:
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)
        ):
            bound = "" if minimum is None else f" of at least {minimum}"
            raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
        return int(value)

    return check


def _number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _boolean(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _name_in(registry: Registry) -> Callable[[str, Any], str]:
    def check(name: str, value: Any) -> str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a name, got {value!r}")
        try:
            registry.get(value)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return value

    return check


def _names_in(registry: Registry) -> Callable[[str, Any], tuple[str, ...]]:
    one = _name_in(registry)

    def check(name: str, value: Any) -> tuple[str, ...]:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list of names, got {value!r}")
        if not value:
            raise ValueError(f"{name} needs at least one name")
        return tuple(one(name, item) for item in value)

    return check


@dataclass(frozen=True)
class RunnerOption:
    """One row of :data:`RUNNER_OPTIONS`.

    Attributes
    ----------
    name:
        The service parameter and the runner-facing option name.
    flags:
        The ``run`` flag spellings.
    type:
        The flag's argparse lexical type (``bool``: a switch).
    check:
        ``check(name, value) -> value``: the range or name check, run on
        every value the CLI or the service receives; raises
        ``ValueError``.
    reads:
        The runner parameter the option feeds (``stats`` and ``tuning``
        group several options).
    help:
        The flag's help text.
    """

    name: str
    flags: tuple[str, ...]
    type: type
    check: Callable[[str, Any], Any]
    reads: str
    help: str


#: Every option a runner can read, in ``run --help`` order.
RUNNER_OPTIONS: Registry[RunnerOption] = Registry("experiment parameter")
for _option in (
    RunnerOption("seed", ("--seed", "-s"), int, _integer(0), "seed",
                 "master seed override"),
    RunnerOption("batch_size", ("--batch", "-b"), int, _integer(1), "batch_size",
                 "Monte-Carlo batch size override"),
    RunnerOption("full", ("--full",), bool, _boolean, "full",
                 "paper-sized configuration sweep (slow)"),
    RunnerOption("topology", ("--topology", "-t"), str, _name_in(ARCHITECTURES),
                 "topology", "registered device topology (default: heavy-hex; "
                 "see `list`)"),
    RunnerOption("benchmarks", ("--benchmarks",), str, _names_in(BENCHMARKS),
                 "benchmarks", "comma-separated benchmark subset for application "
                 "experiments (default: fig10 compiles every benchmark, appsweep "
                 "a three-benchmark core; see `list`)"),
    RunnerOption("routing", ("--routing",), str, _name_in(ROUTING_STRATEGIES),
                 "routing", "registered routing strategy for application "
                 "experiments (default: basic; see `list`)"),
    RunnerOption("chunk_size", ("--chunk-size",), int, _integer(), "stats",
                 "stream yield Monte-Carlo in chunks of this many devices "
                 "(O(chunk) instead of O(batch) memory)"),
    RunnerOption("ci_target", ("--ci-target",), float, _number, "stats",
                 "adaptive sampling: draw chunks until the yield CI half-width "
                 "is at most this value"),
    RunnerOption("max_samples", ("--max-samples",), int, _integer(), "stats",
                 "hard per-point sample cap for --ci-target runs (default: the "
                 "batch size)"),
    RunnerOption("tuning", ("--tuning",), str, _name_in(STRATEGIES), "tuning",
                 "enable post-fabrication frequency repair with this strategy "
                 "(greedy or anneal)"),
    RunnerOption("max_shift_mhz", ("--max-shift-mhz",), float, _number, "tuning",
                 "tuner reach: largest intended per-qubit shift in MHz "
                 "(implies --tuning greedy when no strategy is given)"),
    RunnerOption("repair_budget", ("--repair-budget",), int, _integer(), "tuning",
                 "per-qubit tune-count budget (0 = strict no-op baseline; "
                 "implies --tuning greedy when no strategy is given)"),
):
    RUNNER_OPTIONS.register(_option.name, _option)


def _stats(chunk_size=None, ci_target=None, max_samples=None) -> StatsOptions:
    return StatsOptions(
        chunk_size=chunk_size, ci_target=ci_target, max_samples=max_samples
    )


def _tuning(tuning="greedy", max_shift_mhz=None, repair_budget=None) -> TuningOptions:
    return TuningOptions.build(
        strategy=tuning,
        max_shift_ghz=None if max_shift_mhz is None else max_shift_mhz / 1000.0,
        max_tunes_per_qubit=repair_budget,
    )


#: Runner parameters built from several options: (error label, builder).
_GROUPS = {
    "stats": ("invalid statistics options", _stats),
    "tuning": ("invalid tuning options", _tuning),
}


def parse_runner_options(
    spec: ExperimentSpec, raw: dict[str, Any] | None
) -> tuple[dict[str, Any], list[str]]:
    """Turn raw option values into ``spec.runner``'s keyword arguments.

    ``None`` values are dropped (like an omitted option).  Every other
    value is checked against its :data:`RUNNER_OPTIONS` row, whether or
    not the runner reads it, and the grouped options are built into
    ``stats``/``tuning`` objects.  Any bad value raises ``ValueError``.

    Returns ``(kwargs, ignored)``: ``kwargs`` holds every parameter of
    the runner, its default filled in where no option set it, so two
    submissions that drive the runner identically get equal kwargs.
    ``ignored`` names the given options the runner does not read.
    """
    values: dict[str, dict[str, Any]] = {}
    for name, value in (raw or {}).items():
        try:
            option = RUNNER_OPTIONS.get(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if value is not None:
            values.setdefault(option.reads, {})[name] = option.check(name, value)
    kwargs = spec.options
    ignored: list[str] = []
    for reads, given in values.items():
        if reads in _GROUPS:
            label, build = _GROUPS[reads]
            try:
                value = build(**given)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
        else:
            value = given[reads]
        if reads in kwargs:
            kwargs[reads] = value
        else:
            ignored += given
    return kwargs, [name for name in RUNNER_OPTIONS.names() if name in ignored]


# ---------------------------------------------------------------------- #
# Runners
# ---------------------------------------------------------------------- #
def _experiment(name: str, description: str, aliases: tuple[str, ...] = ()):
    """Register the decorated runner as experiment ``name``."""

    def register(runner: Callable[..., tuple[Any, str]]):
        @functools.wraps(runner)
        def run(engine, **options):
            return runner(
                engine, **{k: v for k, v in options.items() if v is not None}
            )

        EXPERIMENTS.register(
            name, ExperimentSpec(name, description, run, aliases), aliases
        )
        return runner

    return register


#: Reduced-batch default so CLI runs finish in minutes on a laptop; the
#: paper's 10 000-die batches are requested with ``--batch 10000`` or
#: ``--full``.
DEFAULT_STUDY_BATCH = 2000
FULL_STUDY_BATCH = 10_000

#: The study's master seed when none is given.
STUDY_SEED = StudyConfig.seed

#: Chiplet sizes for the study-backed figures at reduced (CLI) scale.
CLI_CHIPLET_SIZES = (10, 20, 40)


def build_study(
    engine=None,
    seed: int = STUDY_SEED,
    batch_size: int | None = None,
    full: bool = False,
) -> ArchitectureStudy:
    """An engine-aware study sized for CLI runs (paper-sized with ``full``).

    ``batch_size=None`` means :data:`FULL_STUDY_BATCH` with ``full`` and
    :data:`DEFAULT_STUDY_BATCH` without.
    """
    if batch_size is None:
        batch_size = FULL_STUDY_BATCH if full else DEFAULT_STUDY_BATCH
    config = StudyConfig(
        chiplet_batch_size=batch_size,
        monolithic_batch_size=batch_size,
        seed=seed,
        chiplet_sizes=PAPER_CHIPLET_SIZES if full else CLI_CHIPLET_SIZES,
    )
    return ArchitectureStudy(config, engine=engine)


@_experiment("fig3", "Fig. 3(b): CX infidelity distributions vs. processor size")
def _fig3(engine, seed=11) -> tuple[Any, str]:
    result = run_fig3_processor_trends(seed=seed)
    return result, result.format_table()


@_experiment("table1", "Table I: the seven collision criteria, demonstrated")
def _table1(engine) -> tuple[Any, str]:
    result = run_table1_collision_criteria()
    return result, result.format_table()


@_experiment(
    "fig4",
    "Fig. 4: collision-free yield vs. qubits (parallel Monte-Carlo grid)",
    aliases=("yield",),
)
def _fig4(
    engine, seed=7, batch_size=1000, stats=None, topology=None, tuning=None
) -> tuple[Any, str]:
    result = run_fig4_yield_sweep(
        batch_size=batch_size,
        seed=seed,
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


@_experiment("fig6", "Fig. 6: configuration counting and assembled-MCM bound")
def _fig6(engine, seed=7, batch_size=100_000) -> tuple[Any, str]:
    points = run_fig6_configurations(batch_size=batch_size, seed=seed, engine=engine)
    text = format_table(
        ["grid", "log10(configs)", "max MCMs"],
        [
            [f"{p.grid[0]}x{p.grid[1]}", f"{p.log10_configurations:.1f}", p.max_mcms]
            for p in points
        ],
    )
    return points, text


@_experiment("sec5c", "Section V-C: fabrication-output gain of chiplets")
def _sec5c(engine, seed=7, batch_size=1000, stats=None) -> tuple[Any, str]:
    result = run_sec5c_fabrication_output(
        batch_size=batch_size, seed=seed, engine=engine, stats=stats
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


@_experiment("fig7", "Fig. 7: detuning-binned empirical CX error model")
def _fig7(engine, seed=11) -> tuple[Any, str]:
    result = run_fig7_detuning_model(seed=seed)
    summary = (
        f"median {result.median:.4f}, mean {result.mean:.4f} "
        f"({result.num_points} points)\n"
    )
    return result, summary + result.format_table()


@_experiment(
    "fig8",
    "Fig. 8: MCM vs. monolithic yield comparison (engine-prefetched)",
    aliases=("mcm",),
)
def _fig8(engine, seed=STUDY_SEED, batch_size=None, full=False) -> tuple[Any, str]:
    result = run_fig8_yield_comparison(build_study(engine, seed, batch_size, full))
    return result, result.format_table()


@_experiment("fig9", "Fig. 9: average-infidelity heat-maps, four link scenarios")
def _fig9(engine, seed=STUDY_SEED, batch_size=None, full=False) -> tuple[Any, str]:
    study = build_study(engine, seed, batch_size, full)
    result = run_fig9_infidelity_heatmap(study)
    sections = []
    for scenario in study.scenarios:
        sections.append(f"[scenario {scenario.name}]")
        sections.append(result.format_table(scenario.name))
    return result, "\n".join(sections)


@_experiment(
    "fig10",
    "Fig. 10: application-level fidelity ratios (engine-parallel compiles)",
    aliases=("apps",),
)
def _fig10(
    engine, seed=None, batch_size=None, full=False,
    benchmarks=BENCHMARK_NAMES, routing="basic",
) -> tuple[Any, str]:
    # A seed seeds both the study and the compiles; unseeded runs keep
    # the paper's two seeds.
    study_seed, compile_seed = (STUDY_SEED, 5) if seed is None else (seed, seed)
    result = run_fig10_applications(
        build_study(engine, study_seed, batch_size, full),
        square_only=not full,
        benchmarks=benchmarks,
        seed=compile_seed,
        engine=engine,
        routing=routing,
    )
    return result, result.format_table()


@_experiment("table2", "Table II: compiled benchmark gate counts on 2x2 MCMs")
def _table2(engine, seed=5, full=False) -> tuple[Any, str]:
    result = run_table2_compiled_benchmarks(
        chiplet_sizes=(10, 20, 40, 60, 90) if full else (10, 20, 40),
        seed=seed,
        engine=engine,
    )
    return result, result.format_table()


def _only(name):
    """A one-entry filter for a sweep over registered names (``None``: all)."""
    return None if name is None else (name,)


@_experiment(
    "topoyield",
    "Cross-topology yield-vs-size comparison (heavy-hex / square / ring)",
    aliases=("topologies",),
)
def _topoyield(
    engine, seed=7, batch_size=1000, stats=None, topology=None, tuning=None
) -> tuple[Any, str]:
    result = run_topology_yield_comparison(
        topologies=_only(topology),
        batch_size=batch_size,
        seed=seed,
        engine=engine,
        stats=stats,
        tuning=tuning,
    )
    return result, result.format_table()


@_experiment("topomcm", "Cross-topology chiplet -> MCM assembly comparison")
def _topomcm(engine, seed=7, batch_size=1000, topology=None) -> tuple[Any, str]:
    result = run_topology_mcm_comparison(
        topologies=_only(topology), batch_size=batch_size, seed=seed, engine=engine
    )
    return result, result.format_table()


@_experiment(
    "tunedyield",
    "As-fab vs. post-fabrication-repaired yield curves per topology",
    aliases=("repair",),
)
def _tunedyield(
    engine, seed=7, batch_size=400, stats=None, topology=None, tuning=None
) -> tuple[Any, str]:
    result = run_tuned_yield_comparison(
        topologies=_only(topology),
        batch_size=batch_size,
        seed=seed,
        engine=engine,
        stats=stats,
        tuning=tuning,
    )
    return result, result.format_table()


@_experiment(
    "repairbudget",
    "Repaired yield vs. tuner max-shift and per-qubit budget sweep",
    aliases=("budget",),
)
def _repairbudget(
    engine, seed=7, batch_size=400, topology=None, tuning=None
) -> tuple[Any, str]:
    result = run_repair_budget_sweep(
        topology=topology,
        batch_size=batch_size,
        seed=seed,
        engine=engine,
        tuning=tuning,
    )
    return result, result.format_table()


@_experiment(
    "appsweep",
    "Application fidelity across topology x routing x repair ensembles",
    aliases=("appeval",),
)
def _appsweep(
    engine, seed=7, batch_size=400, topology=None, tuning=None,
    benchmarks=None, routing=None,
) -> tuple[Any, str]:
    result = run_appsweep(
        topologies=_only(topology),
        benchmarks=benchmarks,
        routings=_only(routing),
        batch_size=batch_size,
        seed=seed,
        engine=engine,
        tuning=tuning,
    )
    return result, result.format_table()
