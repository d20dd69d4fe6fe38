"""Design-space exploration: how far can a monolithic transmon chip scale?

Reproduces the reasoning behind the paper's Fig. 4 and Section V-C at a
reduced batch size: it sweeps fabrication precision and the ideal detuning
step, locates the precision needed to keep monolithic yield alive at
1000 qubits, and quantifies the manufacturing-output gain of switching to
chiplets for a 100-qubit machine.

The sweep runs through the parallel experiment engine — the same path as
``python -m repro run fig4 --jobs N`` — so it uses every available core
and caches its Monte-Carlo points on disk for instant re-runs.

Run with:  python examples/yield_design_space.py
"""

from __future__ import annotations

from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.analysis.figures.sec5c_output import run_sec5c_fabrication_output
from repro.analysis.reporting import format_table
from repro.engine.runner import ExecutionEngine


def main() -> None:
    engine = ExecutionEngine()  # all cores, on-disk cache under .repro_cache/

    # ------------------------------------------------------------------ #
    # Yield vs. size for three fabrication precisions and two step sizes
    # ------------------------------------------------------------------ #
    sizes = (10, 20, 40, 65, 100, 200, 300, 500, 1000)
    sweep = run_fig4_yield_sweep(
        steps_ghz=(0.04, 0.06),
        sigmas_ghz=(0.1323, 0.014, 0.006),
        sizes=sizes,
        batch_size=800,
        seed=7,
        engine=engine,
    )
    print("Collision-free yield vs. qubits (rows: detuning step / sigma_f):")
    print(sweep.format_table())
    print(
        f"\nBest detuning step at laser-tuned precision: "
        f"{sweep.best_step(0.014):.2f} GHz (paper: 0.06 GHz)"
    )

    sigma_needed = None
    for sigma in (0.1323, 0.014, 0.006):
        if sweep.curves[(0.06, sigma)][-1] > 0:
            sigma_needed = sigma
            break
    print(
        "Largest simulated sigma_f with non-zero yield at 1000 qubits: "
        f"{sigma_needed} GHz (paper argues sigma_f < 0.006 GHz is required)"
    )

    # ------------------------------------------------------------------ #
    # Fabrication output: 100-qubit monolith vs. 2x5 MCM of 10-qubit chiplets
    # ------------------------------------------------------------------ #
    output = run_sec5c_fabrication_output(batch_size=1000, seed=7, engine=engine)
    print("\nManufacturing output from the same wafer budget (Section V-C):")
    print(
        format_table(
            ["architecture", "collision-free machines"],
            [
                ["100-qubit monolith", f"{output.monolithic_devices:.0f}"],
                ["2x5 MCM of 10-qubit chiplets", f"{output.mcm_devices:.0f}"],
            ],
        )
    )
    print(f"Output gain: {output.gain:.2f}x (paper reports ~7.7x)")
    print(f"\n[engine] {engine.stats.summary()}")


if __name__ == "__main__":
    main()
