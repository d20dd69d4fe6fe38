"""The common-random-number sample bank (PR 10).

Four layers of guarantees:

* **The core NumPy contract** — ``Generator.normal(0, sigma, size)`` is
  bitwise ``sigma * standard_normal(size)`` at the same generator state,
  and the affine form ``ideal + sigma * z`` matches the historical
  ``ideal + normal(...)`` for every sigma *including zero* (where the
  raw noise arrays differ only in the sign of zero, which the add
  normalises).  Property-tested so a NumPy internals change under us
  fails loudly; CI runs this suite on the oldest supported NumPy.
* **Bank mechanics** — hits restore the post-draw generator state (the
  downstream repair stream continues bit-identically), oversize entries
  and contract violations fall back to direct sampling.  Eviction and
  byte accounting are the shared LRU's, tested in
  ``tests/test_lru_caches.py``.
* **Pipeline parity** — banked runs equal unbanked runs equal engine
  runs at any ``--jobs``, tuned or untuned; every committed golden is
  re-checked with the bank *swapped for a zero-capacity one* (the
  ``unbanked`` fixture; the default tier-1 suite covers the real bank).
* **Shared-draw axes** — ``share_draws`` on the sweep helpers hands
  combinations the same child seed without disturbing the historical
  derivation when off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden_regression as golden
from repro.core import sample_bank
from repro.core.fabrication import FabricationModel
from repro.core.sample_bank import (
    SampleBank,
    banked_standard_normal,
    clear_sample_bank,
    sample_bank_stats,
)
from repro.core.yield_model import (
    detuning_sweep,
    materialize_seeded_batch,
    simulate_yield_point,
)
from repro.engine.seeding import spawn_seeds

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
SIGMAS = st.floats(min_value=1e-6, max_value=16.0, allow_nan=False)
ROWS = st.integers(min_value=1, max_value=40)
COLS = st.integers(min_value=1, max_value=32)


@pytest.fixture(autouse=True)
def _fresh_bank():
    """Every test starts (and leaves) a clean bank."""
    clear_sample_bank()
    yield
    clear_sample_bank()


@pytest.fixture
def unbanked(monkeypatch):
    """Call it to turn banking off for the rest of the test: it swaps the
    process bank for a zero-capacity one, on which every draw is
    ``oversize`` and comes straight from the generator, and returns that
    bank.  The real bank is restored at teardown."""

    def swap() -> SampleBank:
        bank = SampleBank(max_bytes=0)
        monkeypatch.setattr(sample_bank, "_BANK", bank)
        return bank

    return swap


# ---------------------------------------------------------------------- #
# The NumPy contract the bank is built on
# ---------------------------------------------------------------------- #
class TestNormalScalingIdentity:
    @given(seed=SEEDS, sigma=SIGMAS, rows=ROWS, cols=COLS)
    def test_normal_is_scaled_standard_normal_bitwise(self, seed, sigma, rows, cols):
        """normal(0, sigma) == sigma * standard_normal, bytes and state."""
        a_rng = np.random.default_rng(seed)
        b_rng = np.random.default_rng(seed)
        a = a_rng.normal(0.0, sigma, size=(rows, cols))
        b = sigma * b_rng.standard_normal((rows, cols))
        assert a.tobytes() == b.tobytes()
        assert a_rng.bit_generator.state == b_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS, cols=COLS)
    def test_affine_form_matches_legacy_for_every_sigma(self, seed, sigma, rows, cols):
        """ideal + normal(0, sigma) == (z * sigma) += ideal, incl. sigma=0.

        At sigma=0 the raw noise arrays differ in zero sign (0.0 * z is
        -0.0 for negative z) but the add normalises it, so the fabricated
        frequencies — the only thing downstream code sees — are bitwise
        identical.
        """
        ideal = np.linspace(5.0, 5.12, cols)
        legacy_rng = np.random.default_rng(seed)
        legacy = ideal + legacy_rng.normal(0.0, sigma, size=(rows, cols))
        split_rng = np.random.default_rng(seed)
        split = split_rng.standard_normal((rows, cols)) * sigma
        split += ideal
        assert legacy.tobytes() == split.tobytes()
        assert legacy_rng.bit_generator.state == split_rng.bit_generator.state

    @given(seed=SEEDS, sigma=st.one_of(st.just(0.0), SIGMAS), rows=ROWS)
    @settings(max_examples=15)
    def test_sample_batch_matches_legacy_normal_draw(
        self, allocation_27, seed, sigma, rows
    ):
        """The refactored sample_batch reproduces the historical draw."""
        fab = FabricationModel(sigma_ghz=sigma)
        legacy_rng = np.random.default_rng(seed)
        legacy = allocation_27.ideal_frequencies[np.newaxis, :] + legacy_rng.normal(
            0.0, sigma, size=(rows, allocation_27.num_qubits)
        )
        new_rng = np.random.default_rng(seed)
        new = fab.sample_batch(allocation_27, rows, new_rng, draw_seed=seed)
        assert legacy.tobytes() == new.tobytes()
        assert legacy_rng.bit_generator.state == new_rng.bit_generator.state


# ---------------------------------------------------------------------- #
# Bank mechanics
# ---------------------------------------------------------------------- #
class TestBankMechanics:
    def test_hit_returns_same_draws_and_restores_state(self):
        bank = SampleBank(max_bytes=10**7)
        miss_rng = np.random.default_rng(42)
        z_miss = bank.standard_normal(42, (10, 7), miss_rng)
        state_after_draw = miss_rng.bit_generator.state
        tail_miss = miss_rng.standard_normal(5)

        hit_rng = np.random.default_rng(42)
        z_hit = bank.standard_normal(42, (10, 7), hit_rng)
        assert z_hit.tobytes() == z_miss.tobytes()
        assert hit_rng.bit_generator.state == state_after_draw
        tail_hit = hit_rng.standard_normal(5)
        assert tail_hit.tobytes() == tail_miss.tobytes()
        assert bank.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "bypasses": 0,
            "oversize": 0,
            "entries": 1,
            "bytes": z_miss.nbytes,
        }

    def test_banked_arrays_are_read_only(self):
        bank = SampleBank(max_bytes=10**6)
        z = bank.standard_normal(1, (4, 4), np.random.default_rng(1))
        with pytest.raises(ValueError):
            z[0, 0] = 0.0

    def test_oversize_draws_are_served_but_not_stored(self):
        bank = SampleBank(max_bytes=100)
        z = bank.standard_normal(7, (10, 10), np.random.default_rng(7))
        reference = np.random.default_rng(7).standard_normal((10, 10))
        assert z.tobytes() == reference.tobytes()
        stats = bank.stats()
        assert stats["oversize"] == 1
        assert stats["entries"] == 0

    def test_contract_violation_bypasses_the_bank(self):
        """A generator with history cannot be banked under its seed."""
        bank = SampleBank(max_bytes=10**6)
        rng = np.random.default_rng(3)
        rng.standard_normal(1)  # advance: rng no longer "fresh from 3"
        reference_rng = np.random.default_rng(3)
        reference_rng.standard_normal(1)
        z = bank.standard_normal(3, (4, 4), rng)
        assert z.tobytes() == reference_rng.standard_normal((4, 4)).tobytes()
        stats = bank.stats()
        assert stats["bypasses"] == 1
        assert stats["entries"] == 0

    def test_unhashable_seed_bypasses_the_bank(self):
        bank = SampleBank(max_bytes=10**6)
        seed = [1, 2]  # a valid numpy seed spec, but not content-addressable
        z = bank.standard_normal(seed, (3, 3), np.random.default_rng(seed))
        assert z.tobytes() == np.random.default_rng([1, 2]).standard_normal(
            (3, 3)
        ).tobytes()
        assert bank.stats()["bypasses"] == 1

    def test_tuple_seeds_are_banked(self):
        """Study-style tuple seeds are first-class bank keys."""
        bank = SampleBank(max_bytes=10**6)
        key = (2022, 3, 65)
        bank.standard_normal(key, (5, 5), np.random.default_rng(key))
        bank.standard_normal(key, (5, 5), np.random.default_rng(key))
        assert bank.stats()["hits"] == 1

    def test_none_seed_skips_banking(self):
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9).standard_normal((3, 3))
        z = banked_standard_normal(None, (3, 3), rng)
        assert z.tobytes() == reference.tobytes()
        assert sample_bank_stats()["entries"] == 0

    def test_clear_resets_counters_and_entries(self):
        banked_standard_normal(11, (4, 4), np.random.default_rng(11))
        assert sample_bank_stats()["entries"] == 1
        clear_sample_bank()
        stats = sample_bank_stats()
        assert stats["entries"] == 0
        assert stats["misses"] == 0
        assert stats["bytes"] == 0


# ---------------------------------------------------------------------- #
# Pipeline parity: banked == unbanked == parallel, goldens untouched
# ---------------------------------------------------------------------- #
SMALL_SWEEP = dict(
    steps_ghz=(0.05, 0.06),
    sigmas_ghz=(0.014, 0.1323),
    sizes=(10, 27),
    batch_size=120,
    seed=7,
)


def _flatten(curves):
    return [
        (key, p.num_qubits, p.num_collision_free, p.batch_size, p.ci_low, p.ci_high)
        for key in sorted(curves)
        for p in curves[key].points
    ]


class TestPipelineParity:
    @pytest.mark.parametrize("share_draws", [False, True])
    def test_bank_on_off_results_identical(self, share_draws, unbanked):
        banked = detuning_sweep(**SMALL_SWEEP, share_draws=share_draws)
        unbanked()
        reference = detuning_sweep(**SMALL_SWEEP, share_draws=share_draws)
        assert _flatten(banked) == _flatten(reference)

    def test_share_draws_collapses_sampling_to_one_pass_per_size(self):
        detuning_sweep(**SMALL_SWEEP, share_draws=True)
        stats = sample_bank_stats()
        num_combos = len(SMALL_SWEEP["steps_ghz"]) * len(SMALL_SWEEP["sigmas_ghz"])
        assert stats["misses"] == len(SMALL_SWEEP["sizes"])
        assert stats["hits"] == len(SMALL_SWEEP["sizes"]) * (num_combos - 1)
        assert stats["bypasses"] == 0

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_cross_jobs_parity_with_bank(self, jobs):
        """Engine runs at any --jobs reproduce the sequential banked sweep."""
        from repro.engine import ExecutionEngine

        sequential = detuning_sweep(**SMALL_SWEEP, share_draws=True)
        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        parallel = detuning_sweep(**SMALL_SWEEP, share_draws=True, executor=engine)
        assert _flatten(parallel) == _flatten(sequential)

    def test_repair_stream_bit_identical_after_bank_hit(self, unbanked):
        """Tuned runs: the repair rng continues identically through a hit."""
        from repro.tuning import TuningOptions

        point = dict(
            sigma_ghz=0.05,
            step_ghz=0.06,
            num_qubits=27,
            batch_size=120,
            seed=123,
            tuning=TuningOptions(),
        )
        first = simulate_yield_point(**point)  # bank miss
        second = simulate_yield_point(**point)  # bank hit, repair continues
        assert sample_bank_stats()["hits"] >= 1
        unbanked()
        reference = simulate_yield_point(**point)
        assert first == second == reference
        assert first.total_tunes == reference.total_tunes
        assert first.num_repaired == reference.num_repaired

    def test_materialize_preallocated_matches_concatenated_chunks(
        self, allocation_27, fabrication
    ):
        from repro.stats import chunk_layout, chunk_seed

        batch, chunk = 130, 50
        materialized = materialize_seeded_batch(
            allocation_27, fabrication, batch_size=batch, chunk_size=chunk, seed=7
        )
        chunks = [
            fabrication.sample_batch(
                allocation_27,
                length,
                np.random.default_rng(chunk_seed(7, index)),
                draw_seed=chunk_seed(7, index),
            )
            for index, length in enumerate(chunk_layout(batch, chunk))
        ]
        reference = np.concatenate(chunks, axis=0)
        assert materialized.tobytes() == reference.tobytes()
        assert materialized.flags.c_contiguous
        assert materialized.shape == (batch, allocation_27.num_qubits)

    @pytest.mark.parametrize("name", sorted(golden.GOLDEN_PARAMS))
    def test_goldens_unchanged_with_bank_disabled(self, name, unbanked):
        """Every committed golden holds at 1e-9 with the bank OFF.

        The regular golden suite runs with the real bank, so together
        the two suites pin the acceptance criterion: goldens unchanged
        with the bank on AND off.
        """
        bank = unbanked()
        actual = golden._run_experiment(name)
        golden_path = golden.GOLDEN_DIR / f"{name}.json"
        assert golden_path.exists(), f"no committed golden for {name!r}"
        committed = json.loads(golden_path.read_text())
        problems = golden._drift(committed, actual)
        assert not problems, (
            f"{name} drifted with the bank disabled:\n" + "\n".join(problems[:10])
        )
        assert bank.stats()["entries"] == 0


# ---------------------------------------------------------------------- #
# Shared-draw axes on the sweep helpers
# ---------------------------------------------------------------------- #
def _record_runner(seed=None, **params):
    return dict(params, seed=seed)


def _value_runner(value, seed=None):
    return {"value": value, "seed": seed}


class TestSharedDrawAxes:
    def test_grid_sweep_shares_seeds_along_declared_dims(self):
        from repro.analysis.sweeps import grid_sweep

        records = grid_sweep(
            {"a": [1, 2], "b": [10, 20, 30]},
            _record_runner,
            seed=5,
            share_draws=("b",),
        )
        by_a = {}
        for record in records:
            by_a.setdefault(record["a"], set()).add(record["result"]["seed"])
        # One seed per a-value, shared across every b.
        assert all(len(seeds) == 1 for seeds in by_a.values())
        assert by_a[1] != by_a[2]
        assert sorted(s for seeds in by_a.values() for s in seeds) == sorted(
            spawn_seeds(5, 2)
        )

    def test_grid_sweep_default_matches_historical_derivation(self):
        from repro.analysis.sweeps import grid_sweep

        records = grid_sweep({"a": [1, 2], "b": [10, 20]}, _record_runner, seed=5)
        assert [r["result"]["seed"] for r in records] == spawn_seeds(5, 4)

    def test_grid_sweep_rejects_unknown_share_dim(self):
        from repro.analysis.sweeps import grid_sweep

        with pytest.raises(ValueError, match="share_draws"):
            grid_sweep({"a": [1]}, _record_runner, seed=5, share_draws=("nope",))

    def test_sweep_parameter_share_draws_single_seed(self):
        from repro.analysis.sweeps import sweep_parameter

        pairs = sweep_parameter(
            [1, 2, 3], _value_runner, seed=9, share_draws=True
        )
        seeds = {result["seed"] for _, result in pairs}
        assert seeds == {spawn_seeds(9, 1)[0]}

    def test_detuning_sweep_share_draws_defaults_off(self):
        """The historical derivation is untouched when share_draws is off."""
        baseline = detuning_sweep(**SMALL_SWEEP)
        again = detuning_sweep(**SMALL_SWEEP, share_draws=False)
        assert _flatten(baseline) == _flatten(again)


# ---------------------------------------------------------------------- #
# CLI and observability surfaces
# ---------------------------------------------------------------------- #
class TestSurfaces:
    def test_metrics_registry_carries_bank_events(self):
        from repro.obs.metrics import REGISTRY

        banked_standard_normal(21, (4, 4), np.random.default_rng(21))
        banked_standard_normal(21, (4, 4), np.random.default_rng(21))
        snapshot = REGISTRY.snapshot()
        series = snapshot["repro_sample_bank_events_total"]["series"]
        by_event = {
            labels.get("event"): value
            for labels, value in (
                (dict(entry["labels"]), entry["value"]) for entry in series
            )
        }
        assert by_event.get("miss", 0) >= 1
        assert by_event.get("hit", 0) >= 1

    def test_dump_json_reports_bank_traffic_when_enabled(self, tmp_path):
        from repro.__main__ import main

        dump = tmp_path / "out.json"
        rc = main(
            [
                "run",
                "fig6",
                "--batch",
                "2000",
                "--seed",
                "7",
                "--jobs",
                "1",
                "--no-cache",
                "--quiet",
                "--dump-json",
                str(dump),
            ]
        )
        assert rc == 0
        payload = json.loads(dump.read_text())
        bank = payload["engine"]["sample_bank"]
        assert "enabled" not in bank
        assert bank["misses"] >= 1
