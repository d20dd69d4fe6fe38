"""Hypothesis property suite for the repair invariants.

Three contracts of :mod:`repro.tuning` hold for *every* input, not just
the seeds the unit tests happen to pick:

1. **Never worse** — a repaired device is never more collided than its
   as-fabricated input, for any strategy, tuner, scatter or seed.
2. **Zero budget is a no-op** — tuning with an exhausted budget (or zero
   reach) is bit-identical to the untuned path: same frequencies, same
   masks, no randomness consumed.
3. **Determinism** — repair is a pure function of (devices, options,
   seed): independent runs agree bit for bit, and the engine-parallel
   pipeline (``--jobs 4``) reproduces the sequential one (``--jobs 1``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.architecture import get_architecture
from repro.core.fabrication import FabricationModel
from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel
from repro.tuning.repair import TuningOptions, repair_batch
from repro.tuning.strategies import AnnealingRepair, GreedyLocalRepair

#: Small sizes keep each Hypothesis example fast while exercising both
#: bridge and dense qubits (heavy-hex) or full plan periods (ring/square).
SIZES = (10, 16, 20, 27)

_ARCH = {name: get_architecture(name) for name in ("heavy-hex", "square", "ring")}
_ALLOCATIONS = {
    (name, size): arch.allocate(arch.lattice(size))
    for name, arch in _ARCH.items()
    for size in SIZES
}
_GRAPHS = {key: CollisionGraph(alloc) for key, alloc in _ALLOCATIONS.items()}


def _strategy_for(kind: str):
    return GreedyLocalRepair() if kind == "greedy" else AnnealingRepair(steps=120)


device_cases = st.fixed_dictionaries(
    {
        "topology": st.sampled_from(sorted(_ARCH)),
        "size": st.sampled_from(SIZES),
        "sigma": st.floats(min_value=0.001, max_value=0.15),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "kind": st.sampled_from(["greedy", "anneal"]),
        "max_shift": st.floats(min_value=0.0, max_value=0.4),
        "precision": st.floats(min_value=0.0, max_value=0.02),
        "budget": st.sampled_from([None, 0, 1, 2, 5]),
    }
)


@given(case=device_cases)
def test_repaired_device_never_more_collided(case):
    key = (case["topology"], case["size"])
    allocation = _ALLOCATIONS[key]
    graph = _GRAPHS[key]
    fab = FabricationModel(sigma_ghz=case["sigma"])
    freqs = fab.sample_batch(allocation, 1, np.random.default_rng(case["seed"]))[0]
    tuner = TunerModel(
        max_shift_ghz=case["max_shift"],
        precision_sigma_ghz=case["precision"],
        max_tunes_per_qubit=case["budget"],
    )
    strategy = _strategy_for(case["kind"])
    outcome = strategy.repair(graph, freqs, tuner, np.random.default_rng(1))
    assert outcome.violations_before == graph.total_violations(freqs)
    assert outcome.violations_after <= outcome.violations_before
    assert graph.total_violations(outcome.frequencies) == outcome.violations_after


@given(case=device_cases)
def test_zero_budget_tuning_is_bit_identical_noop(case):
    key = (case["topology"], case["size"])
    allocation = _ALLOCATIONS[key]
    fab = FabricationModel(sigma_ghz=case["sigma"])
    batch = fab.sample_batch(allocation, 8, np.random.default_rng(case["seed"]))
    opts = TuningOptions(
        tuner=TunerModel(max_tunes_per_qubit=0),
        strategy=_strategy_for(case["kind"]),
    )
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    outcome = repair_batch(allocation, batch, opts, rng)
    assert np.array_equal(outcome.frequencies, batch)
    assert np.array_equal(outcome.final_mask, outcome.as_fab_mask)
    assert outcome.num_repaired == 0 and outcome.total_tunes == 0
    assert rng.bit_generator.state == state


@given(case=device_cases)
@settings(max_examples=15)
def test_repair_batch_is_deterministic(case):
    key = (case["topology"], case["size"])
    allocation = _ALLOCATIONS[key]
    fab = FabricationModel(sigma_ghz=case["sigma"])
    batch = fab.sample_batch(allocation, 6, np.random.default_rng(case["seed"]))
    opts = TuningOptions(
        tuner=TunerModel(
            max_shift_ghz=case["max_shift"],
            precision_sigma_ghz=case["precision"],
            max_tunes_per_qubit=case["budget"],
        ),
        strategy=_strategy_for(case["kind"]),
    )
    first = repair_batch(allocation, batch, opts, np.random.default_rng(17))
    second = repair_batch(allocation, batch, opts, np.random.default_rng(17))
    assert np.array_equal(first.frequencies, second.frequencies)
    assert np.array_equal(first.final_mask, second.final_mask)
    assert first.total_tunes == second.total_tunes


class TestJobsDeterminism:
    """Repair through the CLI pipeline: ``--jobs 1`` == ``--jobs 4``."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_tunedyield_jobs_1_vs_4(self, strategy, capsys):
        from repro.__main__ import main

        args = [
            "run", "tunedyield", "--seed", "7", "--batch", "60", "--no-cache",
            "--tuning", strategy, "--max-shift-mhz", "150",
        ]
        assert main([*args, "--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main([*args, "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine]")
        ]
        assert strip(sequential) == strip(parallel)
