"""Tests for the shared ArchitectureStudy state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.study import ArchitectureStudy, StudyConfig


class TestStudyCaching:
    def test_chiplet_design_is_cached(self, small_study):
        assert small_study.chiplet_design(20) is small_study.chiplet_design(20)

    def test_chiplet_bin_is_cached(self, small_study):
        assert small_study.chiplet_bin(20) is small_study.chiplet_bin(20)

    def test_mcm_result_is_cached(self, small_study):
        assert small_study.mcm_result(20, (2, 2)) is small_study.mcm_result(20, (2, 2))

    def test_monolithic_result_is_cached(self, small_study):
        assert small_study.monolithic_result(40) is small_study.monolithic_result(40)


class TestChipletBins:
    def test_yields_decrease_with_chiplet_size(self, small_study):
        y10 = small_study.chiplet_bin(10).collision_free_yield
        y40 = small_study.chiplet_bin(40).collision_free_yield
        assert y10 > y40

    def test_bins_are_sorted(self, small_study):
        errors = [c.average_error for c in small_study.chiplet_bin(20).chiplets]
        assert errors == sorted(errors)


class TestMCMResults:
    def test_mcm_result_fields(self, small_study):
        result = small_study.mcm_result(20, (2, 2))
        assert result.design.num_qubits == 80
        assert result.num_mcms > 0
        assert 0 < result.post_assembly_yield <= 1
        assert result.post_assembly_yield_100x <= result.post_assembly_yield
        assert result.best_device is not None
        assert result.num_edges == result.design.coupling_map().num_edges

    def test_eavg_prefix_is_better_than_full_pool(self, small_study):
        """The best-chiplet prefix must have lower average error than the full pool."""
        result = small_study.mcm_result(20, (2, 2))
        if result.num_mcms >= 8:
            assert result.eavg(count=2) <= result.eavg() + 1e-12

    def test_eavg_link_scaling_is_monotonic(self, small_study):
        result = small_study.mcm_result(20, (2, 2))
        assert result.eavg(link_scale=0.25) < result.eavg(link_scale=1.0)

    def test_eavg_for_scenario_matches_manual_scale(self, small_study):
        result = small_study.mcm_result(20, (2, 2))
        scenario = small_study.scenarios[-1]  # elink = echip
        expected = result.eavg(link_scale=scenario.link_model.mean / result.base_link_mean)
        assert result.eavg_for_scenario(scenario) == pytest.approx(expected)

    def test_empty_prefix_clamped(self, small_study):
        result = small_study.mcm_result(20, (2, 2))
        assert np.isfinite(result.eavg(count=0))


class TestMonolithicResults:
    def test_small_monolith_has_survivors(self, small_study):
        result = small_study.monolithic_result(40)
        assert result.collision_free_yield > 0.2
        assert np.isfinite(result.eavg)
        assert result.representative_device is not None
        assert result.representative_device.num_qubits == 40

    def test_large_monolith_yield_collapses(self, small_study):
        result = small_study.monolithic_result(480)
        assert result.collision_free_yield < 0.02

    def test_representative_device_errors_cover_edges(self, small_study):
        device = small_study.monolithic_result(40).representative_device
        assert device.num_edges == len(device.edge_errors)


class TestPrefetch:
    def test_prefetch_tolerates_duplicate_requests(self, cx_model):
        from repro.engine.runner import ExecutionEngine

        config = StudyConfig(
            chiplet_batch_size=60,
            monolithic_batch_size=60,
            chiplet_sizes=(10,),
            seed=5,
        )
        study = ArchitectureStudy(
            config, cx_model=cx_model, engine=ExecutionEngine(jobs=1, use_cache=False)
        )
        study.prefetch(
            chiplet_sizes=(10, 10),
            mcm_grids=[(10, (2, 2)), (10, (2, 2))],
            monolithic_sizes=(40, 40),
        )
        assert (10, 2, 2) in study._mcm_results
        assert 40 in study._monolithic_results

    def test_prefetch_matches_lazy_results(self, cx_model):
        from repro.engine.runner import ExecutionEngine

        config = StudyConfig(
            chiplet_batch_size=60,
            monolithic_batch_size=60,
            chiplet_sizes=(10,),
            seed=5,
        )
        lazy = ArchitectureStudy(config, cx_model=cx_model)
        eager = ArchitectureStudy(
            config, cx_model=cx_model, engine=ExecutionEngine(jobs=2, use_cache=False)
        )
        eager.prefetch(
            chiplet_sizes=(10,),
            mcm_grids=[(10, (2, 2)), (10, (2, 3))],
            monolithic_sizes=(40,),
        )
        assert (
            eager.monolithic_result(40).collision_free_yield
            == lazy.monolithic_result(40).collision_free_yield
        )
        assert (
            eager.chiplet_bin(10).collision_free_yield
            == lazy.chiplet_bin(10).collision_free_yield
        )
        # The grouped wave-2 task must reproduce per-grid lazy assembly
        # exactly (independent rng keying per grid inside one task).
        for grid in ((2, 2), (2, 3)):
            eager_mcm = eager.mcm_result(10, grid)
            lazy_mcm = lazy.mcm_result(10, grid)
            assert eager_mcm.post_assembly_yield == lazy_mcm.post_assembly_yield
            assert np.array_equal(
                eager_mcm.on_chip_error_sums, lazy_mcm.on_chip_error_sums
            )
            assert np.array_equal(
                eager_mcm.link_error_sums, lazy_mcm.link_error_sums
            )


class TestConfig:
    def test_default_config_matches_paper(self):
        config = StudyConfig()
        assert config.sigma_ghz == pytest.approx(0.014)
        assert config.chiplet_batch_size == 10_000
        assert config.max_qubits == 500
        assert config.chiplet_sizes == (10, 20, 40, 60, 90, 120, 160, 200, 250)

    def test_study_uses_four_link_scenarios(self, small_study):
        assert [s.name for s in small_study.scenarios] == [
            "state-of-art",
            "elink=3echip",
            "elink=2echip",
            "elink=1echip",
        ]
