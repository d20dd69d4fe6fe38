"""Quickstart: from a chiplet design to an assembled, scored quantum MCM.

This walks the full public API in a few minutes on a laptop:

1. model collision-limited yield of a heavy-hex chiplet vs. a monolith,
2. repair the monolith batch with a post-fabrication tuner and compare
   the as-fab and repaired yields (the CLI equivalent is
   ``python -m repro run tunedyield --tuning greedy``),
3. fabricate a batch of chiplets, screen them for frequency collisions and
   characterise their gate errors (known-good-die testing),
4. assemble them into a 2x2 multi-chip module,
5. compile a benchmark onto the module and estimate its success via the
   fidelity product of its two-qubit gates.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.circuits.benchmarks import build_benchmark
from repro.compiler.transpile import transpile
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin, post_assembly_yield
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.core.mcm import MCMDesign
from repro.core.yield_model import simulate_yield
from repro.device.calibration import washington_cx_model
from repro.device.noise import LinkErrorModel
from repro.simulation.esp import fidelity_product
from repro.topology.heavy_hex import heavy_hex_by_qubit_count
from repro.tuning.repair import TuningOptions


def main() -> None:
    rng = np.random.default_rng(7)
    fabrication = FabricationModel(sigma_ghz=0.014)  # laser-tuned precision

    # ------------------------------------------------------------------ #
    # 1. Collision-free yield: 20-qubit chiplet vs. 80-qubit monolith
    # ------------------------------------------------------------------ #
    chiplet = ChipletDesign.build(20)
    chiplet_yield = simulate_yield(chiplet.allocation, fabrication, 2000, rng)

    monolith = heavy_hex_by_qubit_count(80)
    mono_allocation = HeavyHexThreeFrequencyPlan().allocate(monolith)
    mono_yield = simulate_yield(mono_allocation, fabrication, 2000, rng)

    print("Collision-free yield (sigma_f = 0.014 GHz, batch of 2000):")
    print(
        format_table(
            ["device", "qubits", "yield"],
            [
                ["20-qubit chiplet", 20, f"{chiplet_yield.collision_free_yield:.3f}"],
                ["80-qubit monolith", 80, f"{mono_yield.collision_free_yield:.3f}"],
            ],
        )
    )

    # ------------------------------------------------------------------ #
    # 2. Post-fabrication repair: turn dead monolith dies into yield
    # ------------------------------------------------------------------ #
    repaired = simulate_yield(
        mono_allocation,
        fabrication,
        2000,
        np.random.default_rng(7),
        tuning=TuningOptions(),  # greedy local repair, laser-like tuner
    )
    print(
        f"\nPost-fabrication repair (80-qubit monolith): as-fab yield "
        f"{repaired.as_fab_yield:.3f} -> repaired {repaired.repaired_yield:.3f} "
        f"({repaired.num_repaired} dies recovered, "
        f"{repaired.tuned_qubits} qubits shifted)"
    )

    # ------------------------------------------------------------------ #
    # 3. Known-good-die testing of a fabricated chiplet batch
    # ------------------------------------------------------------------ #
    cx_model = washington_cx_model()
    chiplet_bin = fabricate_chiplet_bin(chiplet, fabrication, cx_model, 2000, rng)
    print(
        f"\nKGD bin: {chiplet_bin.num_collision_free}/{chiplet_bin.batch_size} dies survive "
        f"screening; best average CX error "
        f"{chiplet_bin.chiplets[0].average_error:.4f}, worst "
        f"{chiplet_bin.chiplets[-1].average_error:.4f}"
    )

    # ------------------------------------------------------------------ #
    # 4. Assemble 2x2 MCMs (80 qubits) from the sorted bin
    # ------------------------------------------------------------------ #
    mcm_design = MCMDesign.build(chiplet, 2, 2)
    link_model = LinkErrorModel.from_mean_median()
    assembly = assemble_mcms(chiplet_bin, mcm_design, link_model, rng)
    mcm_yield = post_assembly_yield(assembly, chiplet_bin.batch_size)
    best = min(assembly.mcms, key=lambda m: m.average_error)
    print(
        f"\nAssembled {assembly.num_mcms} collision-free 2x2 MCMs "
        f"({mcm_design.num_qubits} qubits each, {mcm_design.num_links} inter-chip links); "
        f"post-assembly yield {mcm_yield:.3f} vs. monolithic "
        f"{mono_yield.collision_free_yield:.3f}"
    )
    device = best.to_device("best-mcm")
    print(
        f"Best module: E_avg = {device.average_two_qubit_error():.4f} "
        f"(on-chip {device.average_on_chip_error():.4f}, links {device.average_link_error():.4f})"
    )

    # ------------------------------------------------------------------ #
    # 5. Compile a benchmark and estimate its success probability
    # ------------------------------------------------------------------ #
    circuit = build_benchmark("qaoa", int(0.8 * device.num_qubits), seed=1)
    transpiled = transpile(circuit, device)
    score = fidelity_product(transpiled.two_qubit_edges, device)
    print(
        f"\nQAOA at 80% utilisation: {transpiled.metrics.num_two_qubit} two-qubit gates "
        f"after routing ({transpiled.num_swaps} SWAPs); "
        f"log10 fidelity product = {score.log10_fidelity:.2f}"
    )


if __name__ == "__main__":
    main()
