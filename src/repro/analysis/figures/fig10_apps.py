"""Fig. 10 — application-level fidelity ratios, MCM vs. monolithic.

The per-(system, benchmark) compile+score work is decomposed into
engine task units (:mod:`repro.analysis.appeval`): one flat batch
covering every MCM and monolithic compilation is submitted through
``run_calls``, so ``--jobs N`` parallelises the sweep bit-identically
to the seed-state serial loop (every task carries the same historical
circuit seed) and re-runs are content-addressed cache hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from repro.analysis.appeval import run_compile_jobs, score_from_row
from repro.analysis.reporting import format_table
from repro.analysis.study import ArchitectureStudy
from repro.circuits.benchmarks import BENCHMARK_NAMES
from repro.core.mcm import mcm_dimensions_for, square_dimensions_for
from repro.simulation.esp import FidelityScore, fidelity_ratio

__all__ = ["Fig10Result", "run_fig10_applications"]


@dataclass
class Fig10Result:
    """Per-system, per-benchmark fidelity comparison."""

    utilisation: float
    rows: list[dict] = field(default_factory=list)

    def ratios_for_benchmark(self, benchmark: str) -> list[tuple[int, float]]:
        """(system size, MCM/monolithic fidelity ratio) for one benchmark."""
        return [
            (r["num_qubits"], r["ratio"]) for r in self.rows if r["benchmark"] == benchmark
        ]

    def format_table(self) -> str:
        """Render every comparison row."""
        header = [
            "chiplet", "grid", "qubits", "benchmark",
            "log10F_mcm", "log10F_mono", "ratio",
        ]
        body = []
        for r in self.rows:
            ratio = r["ratio"]
            body.append(
                [
                    r["chiplet_size"],
                    f"{r['grid'][0]}x{r['grid'][1]}",
                    r["num_qubits"],
                    r["benchmark"],
                    f"{r['mcm_log10_fidelity']:.2f}",
                    "0-yield" if r["mono_log10_fidelity"] is None else f"{r['mono_log10_fidelity']:.2f}",
                    "inf" if ratio == inf else f"{ratio:.3g}",
                ]
            )
        return format_table(header, body)


def run_fig10_applications(
    study: ArchitectureStudy,
    chiplet_sizes: tuple[int, ...] | None = None,
    square_only: bool = True,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    utilisation: float = 0.8,
    seed: int = 5,
    engine=None,
    routing: str = "basic",
) -> Fig10Result:
    """Regenerate Fig. 10: benchmark fidelity products, MCM vs. monolithic.

    Parameters
    ----------
    study:
        Shared architecture study (provides devices for both architectures).
    chiplet_sizes:
        Chiplet sizes to include; defaults to every size with a square MCM
        when ``square_only`` is set, otherwise every paper size.
    square_only:
        Restrict to the ``n x n`` systems of Fig. 10(b) (also the Fig. 9
        subset); the full 102-configuration sweep of Fig. 10(a) is obtained
        with ``square_only=False``.
    benchmarks:
        Benchmark names to compile.
    utilisation:
        Fraction of device qubits targeted by each benchmark (paper: 80 %).
    seed:
        Seed for the randomised benchmark circuits (BV strings, QAOA
        graphs); the device side is seeded by the study's config.
    engine:
        Optional :class:`repro.engine.runner.ExecutionEngine`; when present the
        compile+score tasks fan out over worker processes (bit-identical
        to the in-process loop, cached content-addressed).
    routing:
        Registered routing strategy compiled with (``"basic"``
        reproduces the paper's router; ``"noise-aware"`` detours SWAP
        traffic around high-error couplings).
    """
    config = study.config
    result = Fig10Result(utilisation=utilisation)
    if chiplet_sizes is None:
        chiplet_sizes = tuple(
            s
            for s in config.chiplet_sizes
            if not square_only or square_dimensions_for(s, config.max_qubits)
        )

    grid_plan: list[tuple[int, tuple[int, int]]] = []
    for chiplet_size in chiplet_sizes:
        dims = (
            square_dimensions_for(chiplet_size, config.max_qubits)
            if square_only
            else mcm_dimensions_for(chiplet_size, config.max_qubits)
        )
        for grid in dims:
            grid_plan.append((chiplet_size, grid))
    # Two-stage prefetch: assemble first, then run the (expensive)
    # monolithic Monte-Carlo only for systems that actually produced a
    # best device — configurations with an empty bin are skipped below,
    # and the lazy path never computed their monolithic counterparts.
    study.prefetch(chiplet_sizes=chiplet_sizes, mcm_grids=grid_plan)
    study.prefetch(
        monolithic_sizes=sorted(
            {
                size * grid[0] * grid[1]
                for size, grid in grid_plan
                if study.mcm_result(size, grid).best_device is not None
            }
        )
    )

    # One flat batch of compile+score tasks: the MCM job (and, when the
    # monolithic population survived, the monolithic job) for every
    # (system, benchmark) pair.  Every task carries the same historical
    # circuit seed, so the engine-parallel sweep is bit-identical to the
    # seed-state serial loop.
    plan: list[dict] = []
    kwargs_list: list[dict] = []
    for chiplet_size, grid in grid_plan:
        mcm = study.mcm_result(chiplet_size, grid)
        if mcm.best_device is None:
            continue
        mono = study.monolithic_result(mcm.design.num_qubits)
        width = max(2, int(round(utilisation * mcm.design.num_qubits)))
        for benchmark in benchmarks:
            entry = {
                "chiplet_size": chiplet_size,
                "grid": grid,
                "num_qubits": mcm.design.num_qubits,
                "benchmark": benchmark,
                "mcm_index": len(kwargs_list),
                "mono_index": None,
            }
            kwargs_list.append(
                dict(
                    benchmark=benchmark,
                    width=width,
                    circuit_seed=seed,
                    device=mcm.best_device,
                    routing=routing,
                )
            )
            if mono.representative_device is not None:
                entry["mono_index"] = len(kwargs_list)
                kwargs_list.append(
                    dict(
                        benchmark=benchmark,
                        width=width,
                        circuit_seed=seed,
                        device=mono.representative_device,
                        routing=routing,
                    )
                )
            plan.append(entry)

    scores = run_compile_jobs(kwargs_list, engine)

    for entry in plan:
        mcm_score = score_from_row(scores[entry["mcm_index"]])
        mono_score: FidelityScore | None = None
        if entry["mono_index"] is not None:
            mono_score = score_from_row(scores[entry["mono_index"]])
        result.rows.append(
            {
                "chiplet_size": entry["chiplet_size"],
                "grid": entry["grid"],
                "num_qubits": entry["num_qubits"],
                "benchmark": entry["benchmark"],
                "mcm_log10_fidelity": mcm_score.log10_fidelity,
                "mono_log10_fidelity": (
                    mono_score.log10_fidelity if mono_score is not None else None
                ),
                "mcm_two_qubit_gates": mcm_score.num_two_qubit_gates,
                "mono_two_qubit_gates": (
                    mono_score.num_two_qubit_gates if mono_score is not None else None
                ),
                "ratio": fidelity_ratio(mcm_score, mono_score),
            }
        )
    return result
