"""Architecture comparison: should your next 180-qubit machine be modular?

Uses the shared :class:`ArchitectureStudy` pipeline to answer the paper's
central question for one target size: it fabricates chiplet batches,
assembles 3x3 MCMs of 20-qubit chiplets, compares yield and average
two-qubit error against a 180-qubit monolith under the four link-quality
scenarios of Fig. 9, and finally compiles the benchmark suite onto both
architectures (Fig. 10 style).

Run with:  python examples/mcm_architecture_comparison.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.compiler.pipeline import transpile
from repro.engine.runner import ExecutionEngine
from repro.simulation.esp import fidelity_product, fidelity_ratio


def main() -> None:
    chiplet_size, grid = 20, (3, 3)
    config = StudyConfig(
        chiplet_batch_size=2000,
        monolithic_batch_size=2000,
        chiplet_sizes=(chiplet_size,),
        seed=2022,
    )
    # The engine fans the study's independent products (chiplet bin,
    # monolithic Monte-Carlo) out over worker processes; results are
    # bit-identical to the sequential path.
    study = ArchitectureStudy(config, engine=ExecutionEngine(use_cache=False))
    study.prefetch(
        chiplet_sizes=(chiplet_size,),
        mcm_grids=[(chiplet_size, grid)],
        monolithic_sizes=(chiplet_size * grid[0] * grid[1],),
    )

    mcm = study.mcm_result(chiplet_size, grid)
    mono = study.monolithic_result(mcm.design.num_qubits)

    # ------------------------------------------------------------------ #
    # Yield and average-error comparison
    # ------------------------------------------------------------------ #
    print(f"Target machine: {mcm.design.num_qubits} qubits "
          f"({grid[0]}x{grid[1]} MCM of {chiplet_size}-qubit chiplets vs. monolith)\n")
    print(
        format_table(
            ["architecture", "yield", "assembled devices"],
            [
                ["monolithic", f"{mono.collision_free_yield:.4f}",
                 f"{int(mono.collision_free_yield * config.monolithic_batch_size)}"],
                ["MCM", f"{mcm.post_assembly_yield:.4f}", f"{mcm.num_mcms}"],
            ],
        )
    )

    num_mono = max(1, int(round(mono.collision_free_yield * config.monolithic_batch_size)))
    rows = []
    for scenario in study.scenarios:
        eavg = mcm.eavg_for_scenario(scenario, count=num_mono)
        ratio = eavg / mono.eavg if mono.eavg > 0 else float("inf")
        rows.append([scenario.name, f"{eavg:.4f}", f"{mono.eavg:.4f}", f"{ratio:.3f}"])
    print("\nAverage two-qubit infidelity (scaled collision-free comparison):")
    print(format_table(["link scenario", "E_avg MCM", "E_avg mono", "ratio"], rows))

    # ------------------------------------------------------------------ #
    # Application-level comparison (fidelity product of 2q gates)
    # ------------------------------------------------------------------ #
    width = int(0.8 * mcm.design.num_qubits)
    rows = []
    for name in BENCHMARK_NAMES:
        circuit = build_benchmark(name, width, seed=5)
        mcm_score = fidelity_product(
            transpile(circuit, mcm.best_device).two_qubit_edges, mcm.best_device
        )
        mono_score = None
        if mono.representative_device is not None:
            mono_score = fidelity_product(
                transpile(circuit, mono.representative_device).two_qubit_edges,
                mono.representative_device,
            )
        ratio = fidelity_ratio(mcm_score, mono_score)
        rows.append(
            [
                name,
                f"{mcm_score.log10_fidelity:.1f}",
                "0-yield" if mono_score is None else f"{mono_score.log10_fidelity:.1f}",
                "inf" if ratio == float("inf") else f"{ratio:.3g}",
            ]
        )
    print(f"\nBenchmark fidelity products at {width} qubits (80% utilisation):")
    print(format_table(["benchmark", "log10 F_mcm", "log10 F_mono", "F_mcm / F_mono"], rows))
    print("\nRatios above 1 mark workloads where the modular machine wins outright;")
    print("'inf' marks sizes a monolithic device cannot even be manufactured for.")


if __name__ == "__main__":
    main()
