"""Unit and integration tests for the post-fabrication repair subsystem."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.architecture import get_architecture
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin
from repro.core.chiplet import ChipletDesign
from repro.core.collisions import collision_free_mask, find_collisions
from repro.core.fabrication import FabricationModel
from repro.core.mcm import MCMDesign
from repro.core.output_model import fabrication_output_from_results
from repro.core.yield_model import (
    RepairedYieldResult,
    simulate_yield,
    simulate_yield_chunked,
    simulate_yield_point,
    yield_vs_qubits,
)
from repro.engine.cache import ResultCache, stable_token
from repro.engine.runner import ExecutionEngine
from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel
from repro.tuning.repair import TuningOptions, repair_batch
from repro.tuning.strategies import (
    AnnealingRepair,
    GreedyLocalRepair,
    RepairStrategy,
    get_strategy,
)

from stats_reference import materialize_seeded_batch

SIGMA = 0.014


@pytest.fixture(scope="module")
def allocation():
    arch = get_architecture(None)
    return arch.allocate(arch.lattice(40))


@pytest.fixture(scope="module")
def graph(allocation):
    return CollisionGraph(allocation)


def _collided_batch(allocation, batch=60, seed=5):
    fab = FabricationModel(sigma_ghz=SIGMA)
    return fab.sample_batch(allocation, batch, np.random.default_rng(seed))


class TestTunerModel:
    def test_defaults_are_valid(self):
        tuner = TunerModel()
        assert tuner.max_shift_ghz > 0
        assert not tuner.is_noop

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerModel(max_shift_ghz=-0.1)
        with pytest.raises(ValueError):
            TunerModel(precision_sigma_ghz=-0.1)
        with pytest.raises(ValueError):
            TunerModel(max_tunes_per_qubit=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_reach_and_precision(self, value):
        # A NaN reach used to slip past ``< 0`` and screen every die as
        # repaired (NaN landing points fail every criterion comparison).
        with pytest.raises(ValueError, match="finite"):
            TunerModel(max_shift_ghz=value)
        with pytest.raises(ValueError, match="finite"):
            TunerModel(precision_sigma_ghz=value)

    def test_noop_conditions(self):
        assert TunerModel(max_shift_ghz=0.0).is_noop
        assert TunerModel(max_tunes_per_qubit=0).is_noop
        assert not TunerModel(max_tunes_per_qubit=1).is_noop

    def test_budget_for_unlimited_cannot_be_exhausted(self):
        assert TunerModel().budget_for(100) > 100


class TestCollisionGraph:
    def test_total_violations_matches_find_collisions(self, allocation, graph):
        for seed in range(8):
            freqs = _collided_batch(allocation, batch=1, seed=seed)[0]
            report = find_collisions(allocation, freqs)
            assert graph.total_violations(freqs) == report.num_collisions

    def test_ideal_device_has_zero_violations(self, allocation, graph):
        assert graph.total_violations(allocation.ideal_frequencies) == 0
        assert graph.violating_qubits(allocation.ideal_frequencies).size == 0

    def test_touched_covers_every_constraint(self, allocation, graph):
        edge_seen = set()
        triple_seen = set()
        for qubit in range(allocation.num_qubits):
            edge_idx, triple_idx = graph.touched(qubit)
            edge_seen.update(edge_idx.tolist())
            triple_seen.update(triple_idx.tolist())
        assert edge_seen == set(range(allocation.directed_edges.shape[0]))
        assert triple_seen == set(range(allocation.control_triples.shape[0]))

    def test_local_violations_sum_respects_membership(self, allocation, graph):
        freqs = _collided_batch(allocation, batch=1, seed=3)[0]
        report = find_collisions(allocation, freqs)
        per_qubit = graph.per_qubit_violations(freqs)
        # Each violated pair scores 2 memberships, each triple 3.
        expected = sum(len(qubits) for _, qubits in report.collisions)
        assert int(per_qubit.sum()) == expected

    def test_violating_qubits_match_report(self, allocation, graph):
        freqs = _collided_batch(allocation, batch=1, seed=7)[0]
        report = find_collisions(allocation, freqs)
        expected = sorted({q for _, qubits in report.collisions for q in qubits})
        assert graph.violating_qubits(freqs).tolist() == expected


class TestStrategies:
    def test_protocol_conformance(self):
        assert isinstance(GreedyLocalRepair(), RepairStrategy)
        assert isinstance(AnnealingRepair(), RepairStrategy)

    def test_get_strategy(self):
        assert isinstance(get_strategy("greedy"), GreedyLocalRepair)
        assert isinstance(get_strategy("anneal"), AnnealingRepair)
        with pytest.raises(KeyError, match="unknown repair strategy"):
            get_strategy("quantum")

    @pytest.mark.parametrize("strategy", [GreedyLocalRepair(), AnnealingRepair()])
    def test_never_worse_invariant(self, allocation, graph, strategy):
        tuner = TunerModel()
        rng = np.random.default_rng(11)
        for freqs in _collided_batch(allocation, batch=20, seed=2):
            before = graph.total_violations(freqs)
            outcome = strategy.repair(graph, freqs, tuner, rng)
            assert outcome.violations_before == before
            assert outcome.violations_after <= before
            assert graph.total_violations(outcome.frequencies) == outcome.violations_after

    @pytest.mark.parametrize("strategy", [GreedyLocalRepair(), AnnealingRepair()])
    def test_noop_tuner_returns_input_without_rng_draws(
        self, allocation, graph, strategy
    ):
        freqs = _collided_batch(allocation, batch=1, seed=2)[0]
        for tuner in (TunerModel(max_shift_ghz=0.0), TunerModel(max_tunes_per_qubit=0)):
            rng = np.random.default_rng(11)
            state = rng.bit_generator.state
            outcome = strategy.repair(graph, freqs, tuner, rng)
            assert outcome.frequencies is freqs
            assert outcome.total_tunes == 0
            assert rng.bit_generator.state == state

    def test_collision_free_input_is_untouched(self, allocation, graph):
        ideal = allocation.ideal_frequencies
        rng = np.random.default_rng(0)
        outcome = GreedyLocalRepair().repair(graph, ideal, TunerModel(), rng)
        assert outcome.frequencies is ideal
        assert outcome.success and not outcome.changed

    def test_greedy_respects_budget(self, allocation, graph):
        tuner = TunerModel(max_tunes_per_qubit=1)
        rng = np.random.default_rng(4)
        for freqs in _collided_batch(allocation, batch=10, seed=6):
            outcome = GreedyLocalRepair().repair(graph, freqs, tuner, rng)
            # With a 1-tune budget, accepted tunes == tuned qubits.
            assert outcome.total_tunes == outcome.tuned_qubits

    def test_greedy_repairs_most_devices_at_moderate_size(self, allocation, graph):
        tuner = TunerModel()
        rng = np.random.default_rng(9)
        batch = _collided_batch(allocation, batch=40, seed=1)
        successes = sum(
            GreedyLocalRepair().repair(graph, freqs, tuner, rng).success
            for freqs in batch
        )
        assert successes > 30

    @pytest.mark.parametrize("strategy", [GreedyLocalRepair(), AnnealingRepair()])
    def test_total_displacement_bounded_by_reach(self, allocation, graph, strategy):
        # The bound is on the displacement from the *as-fabricated*
        # frequency — re-tuning in later rounds must not walk past it.
        tuner = TunerModel(max_shift_ghz=0.05, precision_sigma_ghz=0.0)
        rng = np.random.default_rng(13)
        fab = FabricationModel(sigma_ghz=0.06)
        for freqs in fab.sample_batch(allocation, 15, np.random.default_rng(2)):
            outcome = strategy.repair(graph, freqs, tuner, rng)
            displacement = np.abs(outcome.frequencies - freqs)
            assert float(displacement.max()) <= tuner.max_shift_ghz + 1e-12

    def test_outcome_reports_tuned_qubit_indices(self, allocation, graph):
        freqs = _collided_batch(allocation, batch=1, seed=8)[0]
        outcome = GreedyLocalRepair().repair(
            graph, freqs, TunerModel(), np.random.default_rng(21)
        )
        assert len(outcome.tuned_qubit_indices) == outcome.tuned_qubits
        moved = np.flatnonzero(outcome.frequencies != freqs)
        assert set(moved.tolist()) == set(outcome.tuned_qubit_indices)

    def test_strategies_are_deterministic_at_fixed_seed(self, allocation, graph):
        freqs = _collided_batch(allocation, batch=1, seed=8)[0]
        for strategy in (GreedyLocalRepair(), AnnealingRepair()):
            first = strategy.repair(
                graph, freqs, TunerModel(), np.random.default_rng(21)
            )
            second = strategy.repair(
                graph, freqs, TunerModel(), np.random.default_rng(21)
            )
            assert np.array_equal(first.frequencies, second.frequencies)
            assert first.total_tunes == second.total_tunes


class TestRepairBatch:
    def test_counts_are_consistent(self, allocation):
        batch = _collided_batch(allocation, batch=80, seed=3)
        outcome = repair_batch(
            allocation, batch, TuningOptions(), np.random.default_rng(5)
        )
        assert outcome.num_free == outcome.num_as_fab + outcome.num_repaired
        assert outcome.num_free >= outcome.num_as_fab
        assert outcome.frequencies.shape == batch.shape
        # As-fab survivors are never touched.
        assert np.array_equal(
            outcome.frequencies[outcome.as_fab_mask], batch[outcome.as_fab_mask]
        )

    def test_input_batch_never_mutated(self, allocation):
        batch = _collided_batch(allocation, batch=30, seed=3)
        original = batch.copy()
        repair_batch(allocation, batch, TuningOptions(), np.random.default_rng(5))
        assert np.array_equal(batch, original)

    def test_zero_budget_is_bit_identical_noop(self, allocation):
        batch = _collided_batch(allocation, batch=30, seed=3)
        opts = TuningOptions(tuner=TunerModel(max_tunes_per_qubit=0))
        outcome = repair_batch(allocation, batch, opts, np.random.default_rng(5))
        assert np.array_equal(outcome.frequencies, batch)
        assert outcome.num_repaired == 0
        assert np.array_equal(outcome.final_mask, outcome.as_fab_mask)


class TestYieldModelIntegration:
    def test_tuned_result_type_and_accounting(self):
        result = simulate_yield_point(
            SIGMA, 0.06, 40, batch_size=120, seed=7, tuning=TuningOptions()
        )
        assert isinstance(result, RepairedYieldResult)
        assert result.num_collision_free == result.num_as_fab_free + result.num_repaired
        assert result.repaired_yield >= result.as_fab_yield
        assert result.ci_low <= result.estimate <= result.ci_high

    def test_untuned_point_is_plain_yield_result(self):
        result = simulate_yield_point(SIGMA, 0.06, 40, batch_size=120, seed=7)
        assert not isinstance(result, RepairedYieldResult)

    def test_as_fab_matches_untuned_run(self, allocation):
        fab = FabricationModel(sigma_ghz=SIGMA)
        untuned = simulate_yield(allocation, fab, 150, np.random.default_rng(7))
        tuned = simulate_yield(
            allocation, fab, 150, np.random.default_rng(7), tuning=TuningOptions()
        )
        assert tuned.num_as_fab_free == untuned.num_collision_free

    def test_streaming_chunks_adaptive_parity(self, allocation):
        fab = FabricationModel(sigma_ghz=SIGMA)
        opts = TuningOptions()
        streamed = simulate_yield_chunked(
            allocation, fab, batch_size=300, chunk_size=100, seed=9, tuning=opts
        )
        # Repair leaves the fabricated batch alone: the as-fab survivors
        # are the reference batch's collision-free rows.
        batch = materialize_seeded_batch(
            allocation, fab, batch_size=300, chunk_size=100, seed=9
        )
        assert streamed.num_as_fab_free == int(collision_free_mask(allocation, batch).sum())
        # A zero-target adaptive run draws, and repairs, every chunk.
        replayed = simulate_yield_chunked(
            allocation,
            fab,
            batch_size=300,
            chunk_size=100,
            seed=9,
            tuning=opts,
            ci_target=0.0,
        )
        assert replayed == streamed
        # The adaptive run's observed samples are a prefix of the stream.
        adaptive = simulate_yield_chunked(
            allocation,
            fab,
            batch_size=300,
            chunk_size=100,
            seed=9,
            tuning=opts,
            ci_target=0.5,
        )
        assert isinstance(adaptive, RepairedYieldResult)
        assert adaptive.samples_used <= 300

    def test_parallel_matches_sequential_with_tuning(self, tmp_path):
        opts = TuningOptions()
        kwargs = dict(
            sigma_ghz=SIGMA,
            step_ghz=0.06,
            sizes=(20, 40),
            batch_size=100,
            seed=7,
            tuning=opts,
        )
        sequential = yield_vs_qubits(**kwargs)
        engine = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path / "cache"))
        parallel = yield_vs_qubits(executor=engine, **kwargs)
        for seq_point, par_point in zip(sequential.points, parallel.points):
            assert seq_point == par_point

    def test_tuned_and_untuned_points_get_distinct_cache_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = dict(sigma_ghz=SIGMA, step_ghz=0.06, num_qubits=20, seed=3)
        untuned_key = cache.key_for("yield.point", base)
        tuned_key = cache.key_for(
            "yield.point", {**base, "tuning": TuningOptions()}
        )
        assert untuned_key != tuned_key
        # Different tuner knobs are different cache identities too.
        other = cache.key_for(
            "yield.point",
            {**base, "tuning": TuningOptions(tuner=TunerModel(max_shift_ghz=0.1))},
        )
        assert other not in (untuned_key, tuned_key)

    def test_tuning_options_stable_token_covers_strategy(self):
        greedy = stable_token(TuningOptions())
        anneal = stable_token(TuningOptions(strategy=AnnealingRepair()))
        assert greedy != anneal


class TestAssemblyIntegration:
    def test_bin_counts_repaired_dies(self, cx_model):
        design = ChipletDesign.build(20)
        fab = FabricationModel(sigma_ghz=SIGMA)
        untuned = fabricate_chiplet_bin(
            design, fab, cx_model, batch_size=200, rng=np.random.default_rng(7)
        )
        tuned = fabricate_chiplet_bin(
            design,
            fab,
            cx_model,
            batch_size=200,
            rng=np.random.default_rng(7),
            tuning=TuningOptions(),
        )
        assert untuned.num_repaired == 0
        assert tuned.num_repaired > 0
        assert tuned.num_collision_free == untuned.num_collision_free + tuned.num_repaired
        assert tuned.as_fab_yield == untuned.collision_free_yield
        assert sum(1 for c in tuned.chiplets if c.repaired) == tuned.num_repaired

    def test_as_fab_survivors_identical_across_repair_axis(self, cx_model):
        # The repair stage draws from a spawned child stream, so the
        # as-fabricated survivors of a tuned bin carry bit-identical
        # frequencies AND error draws to the untuned bin at the same
        # seed — a tuned-vs-as-fab comparison isolates the repair
        # effect instead of resampling every coupling.
        design = ChipletDesign.build(20)
        fab = FabricationModel(sigma_ghz=SIGMA)
        untuned = fabricate_chiplet_bin(
            design, fab, cx_model, batch_size=200, rng=np.random.default_rng(7)
        )
        tuned = fabricate_chiplet_bin(
            design,
            fab,
            cx_model,
            batch_size=200,
            rng=np.random.default_rng(7),
            tuning=TuningOptions(),
        )
        assert tuned.num_repaired > 0
        by_frequencies = {
            chiplet.frequencies_ghz.tobytes(): chiplet.edge_errors
            for chiplet in untuned.chiplets
        }
        as_fab = [chiplet for chiplet in tuned.chiplets if not chiplet.repaired]
        assert len(as_fab) == len(untuned.chiplets)
        for chiplet in as_fab:
            assert by_frequencies[chiplet.frequencies_ghz.tobytes()] == chiplet.edge_errors

    def test_untuned_bin_stream_is_unchanged(self, cx_model):
        design = ChipletDesign.build(10)
        fab = FabricationModel(sigma_ghz=SIGMA)
        first = fabricate_chiplet_bin(
            design, fab, cx_model, batch_size=100, rng=np.random.default_rng(3)
        )
        second = fabricate_chiplet_bin(
            design,
            fab,
            cx_model,
            batch_size=100,
            rng=np.random.default_rng(3),
            tuning=None,
        )
        assert len(first.chiplets) == len(second.chiplets)
        for a, b in zip(first.chiplets, second.chiplets):
            assert np.array_equal(a.frequencies_ghz, b.frequencies_ghz)
            assert a.edge_errors == b.edge_errors

    def test_assembly_counts_repaired_chiplets(self, cx_model, link_model):
        design = ChipletDesign.build(20)
        mcm_design = MCMDesign.build(design, 1, 2)
        fab = FabricationModel(sigma_ghz=SIGMA)
        rng = np.random.default_rng(7)
        chiplet_bin = fabricate_chiplet_bin(
            design, fab, cx_model, batch_size=200, rng=rng, tuning=TuningOptions()
        )
        assembly = assemble_mcms(chiplet_bin, mcm_design, link_model, rng=rng)
        assert assembly.repaired_chiplets_used == sum(
            m.num_repaired_chiplets for m in assembly.mcms
        )
        repaired_module = next(
            (m for m in assembly.mcms if m.num_repaired_chiplets), None
        )
        assert repaired_module is not None, "no module used a repaired chiplet"
        device = repaired_module.to_device()
        assert "repaired_chiplets" in device.metadata
        # The tuned-qubit identities survive into the device layer.
        assert device.num_tuned_qubits > 0
        tuned_index = device.metadata["tuned_qubits"][0]
        assert device.qubit(tuned_index).tuned
        untuned = next(
            i for i in range(device.num_qubits)
            if i not in set(device.metadata["tuned_qubits"])
        )
        assert not device.qubit(untuned).tuned


class TestFabricationOutputIntegration:
    def test_repaired_fields_populated_from_tuned_results(self):
        opts = TuningOptions()
        mono = simulate_yield_point(
            SIGMA, 0.06, 40, batch_size=200, seed=7, tuning=opts
        )
        chip = simulate_yield_point(
            SIGMA, 0.06, 10, batch_size=200, seed=8, tuning=opts
        )
        output = fabrication_output_from_results(mono, chip, 2, 2)
        assert output.monolithic_repaired_yield == mono.num_repaired / 200
        assert output.chiplet_repaired_yield == chip.num_repaired / 200

    def test_untuned_results_leave_repaired_fields_none(self):
        mono = simulate_yield_point(SIGMA, 0.06, 40, batch_size=200, seed=7)
        chip = simulate_yield_point(SIGMA, 0.06, 10, batch_size=200, seed=8)
        output = fabrication_output_from_results(mono, chip, 2, 2)
        assert output.monolithic_repaired_yield is None


class TestTuningOptionsBuild:
    def test_build_defaults(self):
        opts = TuningOptions.build()
        assert isinstance(opts.strategy, GreedyLocalRepair)
        assert opts.tuner == TunerModel()

    def test_build_overrides(self):
        opts = TuningOptions.build(
            strategy="anneal", max_shift_ghz=0.1, max_tunes_per_qubit=3
        )
        assert isinstance(opts.strategy, AnnealingRepair)
        assert opts.tuner.max_shift_ghz == 0.1
        assert opts.tuner.max_tunes_per_qubit == 3

    def test_build_unknown_strategy(self):
        with pytest.raises(KeyError):
            TuningOptions.build(strategy="oracle")

    def test_options_pickle_roundtrip(self):
        import pickle

        opts = TuningOptions.build(strategy="anneal", max_shift_ghz=0.2)
        clone = pickle.loads(pickle.dumps(opts))
        assert clone == opts
        assert dataclasses.is_dataclass(clone.tuner)
