"""Tests for the Monte-Carlo collision-free yield model (Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fabrication import FabricationModel
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.core.yield_model import (
    YieldCurve,
    detuning_sweep,
    simulate_yield,
    simulate_yield_with_devices,
    yield_vs_qubits,
)
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


class TestSimulateYield:
    def test_zero_variation_gives_full_yield(self, allocation_27, rng):
        result = simulate_yield(allocation_27, FabricationModel(0.0), 64, rng)
        assert result.collision_free_yield == pytest.approx(1.0)

    def test_huge_variation_kills_yield(self, allocation_27, rng):
        result = simulate_yield(allocation_27, FabricationModel(0.2), 200, rng)
        assert result.collision_free_yield < 0.05

    def test_result_metadata(self, allocation_27, rng):
        result = simulate_yield(allocation_27, FabricationModel(0.014), 50, rng)
        assert result.num_qubits == 27
        assert result.batch_size == 50
        assert result.sigma_ghz == pytest.approx(0.014)
        assert 0 <= result.num_collision_free <= 50

    def test_seeded_runs_are_reproducible(self, allocation_27):
        a = simulate_yield(
            allocation_27, FabricationModel(0.014), 200, np.random.default_rng(5)
        )
        b = simulate_yield(
            allocation_27, FabricationModel(0.014), 200, np.random.default_rng(5)
        )
        assert a.num_collision_free == b.num_collision_free

    def test_paper_scale_yields(self, rng):
        """At sigma_f = 0.014 GHz the 20-qubit chiplet yields roughly 70 %."""
        lattice = heavy_hex_by_qubit_count(20)
        allocation = HeavyHexThreeFrequencyPlan().allocate(lattice)
        result = simulate_yield(allocation, FabricationModel(0.014), 2000, rng)
        assert 0.55 < result.collision_free_yield < 0.85

    def test_yield_decreases_with_size(self, rng):
        fabrication = FabricationModel(0.014)
        yields = []
        for size in (10, 40, 100):
            lattice = heavy_hex_by_qubit_count(size)
            allocation = HeavyHexThreeFrequencyPlan().allocate(lattice)
            yields.append(
                simulate_yield(allocation, fabrication, 600, rng).collision_free_yield
            )
        assert yields[0] > yields[1] > yields[2]

    def test_yield_improves_with_precision(self, allocation_27, rng):
        coarse = simulate_yield(allocation_27, FabricationModel(0.1323), 500, rng)
        fine = simulate_yield(allocation_27, FabricationModel(0.006), 500, rng)
        assert fine.collision_free_yield > coarse.collision_free_yield


class TestSimulateYieldWithDevices:
    def test_returns_only_collision_free_devices(self, allocation_27, rng):
        result, devices = simulate_yield_with_devices(
            allocation_27, FabricationModel(0.014), 300, rng
        )
        assert devices.shape == (result.num_collision_free, allocation_27.num_qubits)

    def test_survivor_frequencies_near_targets(self, allocation_27, rng):
        _, devices = simulate_yield_with_devices(
            allocation_27, FabricationModel(0.014), 300, rng
        )
        if devices.shape[0]:
            offsets = devices - allocation_27.ideal_frequencies
            assert np.abs(offsets).max() < 0.1


class TestYieldCurve:
    def test_yield_vs_qubits_curve(self):
        curve = yield_vs_qubits(0.014, 0.06, sizes=(10, 40, 100), batch_size=300, seed=3)
        assert curve.sizes == [10, 40, 100]
        assert len(curve.yields) == 3
        assert curve.yield_at(40) == curve.yields[1]

    def test_yield_at_unknown_size_raises(self):
        curve = YieldCurve(sigma_ghz=0.014, step_ghz=0.06)
        with pytest.raises(KeyError):
            curve.yield_at(99)

    def test_lattice_cache_is_filled(self):
        cache = {}
        yield_vs_qubits(0.014, 0.06, sizes=(10, 20), batch_size=50, seed=1, lattices=cache)
        assert set(cache) == {10, 20}


class TestDetuningSweep:
    def test_sweep_grid_shape(self):
        curves = detuning_sweep(
            steps_ghz=(0.05, 0.06),
            sigmas_ghz=(0.014,),
            sizes=(10, 40),
            batch_size=200,
            seed=2,
        )
        assert set(curves) == {(0.05, 0.014), (0.06, 0.014)}
        for curve in curves.values():
            assert len(curve.points) == 2

    def test_optimal_step_is_near_paper_value(self):
        """0.06 GHz should (weakly) dominate 0.04 GHz at moderate sizes."""
        curves = detuning_sweep(
            steps_ghz=(0.04, 0.06),
            sigmas_ghz=(0.014,),
            sizes=(40, 100),
            batch_size=600,
            seed=4,
        )
        total_006 = sum(curves[(0.06, 0.014)].yields)
        total_004 = sum(curves[(0.04, 0.014)].yields)
        assert total_006 >= total_004
