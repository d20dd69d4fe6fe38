"""End-to-end integration tests spanning every substrate.

These tests reproduce, at reduced batch sizes, the qualitative findings of
the paper: chiplets yield better than monoliths, carefully selected MCMs
reach lower average error, and the full fabricate -> screen -> assemble ->
compile -> score pipeline holds together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.compiler.pipeline import transpile
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import SIGMA_LASER_TUNED_GHZ, FabricationModel
from repro.core.mcm import MCMDesign
from repro.core.yield_model import simulate_yield
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.simulation.esp import fidelity_product, fidelity_ratio
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


class TestYieldStory:
    def test_chiplets_out_yield_equal_sized_monolith(self, fabrication, rng):
        """Headline claim: small dies survive collision screening far more often."""
        chiplet = ChipletDesign.build(20)
        chiplet_yield = simulate_yield(
            chiplet.allocation, fabrication, 800, rng
        ).collision_free_yield

        mono_lattice = heavy_hex_by_qubit_count(180)
        mono_allocation = HeavyHexThreeFrequencyPlan().allocate(mono_lattice)
        mono_yield = simulate_yield(
            mono_allocation, fabrication, 800, rng
        ).collision_free_yield

        assert chiplet_yield > 5 * max(mono_yield, 1e-3)

    def test_laser_tuning_recovers_yield(self, rng):
        """Laser tuning (sigma 0.1323 -> 0.014) boosts yields by an order of magnitude."""
        chiplet = ChipletDesign.build(20)
        raw = simulate_yield(
            chiplet.allocation, FabricationModel(0.1323), 600, rng
        ).collision_free_yield
        tuned = simulate_yield(
            chiplet.allocation, FabricationModel(SIGMA_LASER_TUNED_GHZ), 600, rng
        ).collision_free_yield
        assert tuned > max(raw * 5, 0.3)


class TestFullPipeline:
    def test_fabricate_assemble_compile_score(self, cx_model, link_model, fabrication):
        """The complete pipeline produces a finite fidelity score on an MCM."""
        rng = np.random.default_rng(123)
        design = ChipletDesign.build(20)
        chiplet_bin = fabricate_chiplet_bin(design, fabrication, cx_model, 400, rng)
        assert chiplet_bin.num_collision_free > 100

        mcm_design = MCMDesign.build(design, 2, 2)
        assembly = assemble_mcms(chiplet_bin, mcm_design, link_model, rng, max_mcms=5)
        assert assembly.num_mcms == 5

        device = assembly.mcms[0].to_device()
        circuit = build_benchmark("qaoa", int(0.8 * device.num_qubits), seed=1)
        transpiled = transpile(circuit, device)
        score = fidelity_product(transpiled.two_qubit_edges, device)
        assert -300 < score.log10_fidelity < 0

    def test_best_mcm_beats_median_monolith_of_same_size(self, small_study):
        """Post-selected modular devices reach lower average two-qubit error."""
        mcm = small_study.mcm_result(40, (2, 2))
        mono = small_study.monolithic_result(160)
        if mono.representative_device is None:
            pytest.skip("monolithic yield was zero at this batch size")
        assert mcm.best_device is not None
        # The best assembled module uses the best chiplets; with the paper's
        # link quality it should at least be competitive (within 25 %).
        assert mcm.best_device.average_two_qubit_error() < 1.25 * mono.eavg

    def test_fidelity_ratio_finite_for_comparable_systems(self, small_study):
        mcm = small_study.mcm_result(20, (2, 2))
        mono = small_study.monolithic_result(80)
        circuit = build_benchmark("bv", 64)
        mcm_score = fidelity_product(
            transpile(circuit, mcm.best_device).two_qubit_edges, mcm.best_device
        )
        mono_score = fidelity_product(
            transpile(circuit, mono.representative_device).two_qubit_edges,
            mono.representative_device,
        )
        ratio = fidelity_ratio(mcm_score, mono_score)
        assert ratio > 0

    def test_link_quality_controls_mcm_average_error(self, small_study):
        """Improving links monotonically improves MCM average infidelity."""
        mcm = small_study.mcm_result(20, (3, 3))
        eavgs = [mcm.eavg_for_scenario(s) for s in small_study.scenarios]
        assert eavgs == sorted(eavgs, reverse=True)
