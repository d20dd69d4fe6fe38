"""Characterization of the yield samplers' exact counts.

Every sampler of :func:`repro.core.yield_model.simulate_yield_point`
(monolithic, streaming, adaptive) is run untuned and through both repair
strategies on two topologies at a small size and a fixed seed, and the
full ``(num_collision_free, batch_size, num_repaired, tuned_qubits,
total_tunes)`` record is pinned.  The values are the model's outputs, not
derived expectations: any change to the seed derivation, the sample-bank
draw keys, the chunk layout or the repair stream shows up here as a
mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.architecture import get_architecture
from repro.core.fabrication import FabricationModel
from repro.core.yield_model import (
    RepairedYieldResult,
    simulate_yield_point,
    simulate_yield_with_devices,
)
from repro.tuning import TuningOptions

SIGMA = 0.02
STEP = 0.06
NUM_QUBITS = 16
BATCH = 130  # chunks of 64, 64 and 2: the last chunk is short
SEED = 2024

#: Sum of the surviving devices' frequencies (GHz) of the monolithic
#: heavy-hex batch, compared exactly: the survivors must be bit-identical.
SURVIVOR_SUM = 2841.608912804236

SAMPLERS = {
    "monolithic": {},
    "streaming": dict(chunk_size=64),
    "adaptive": dict(ci_target=0.05, chunk_size=64),
}

#: (topology, tuning, sampler) -> (free, trials, repaired, tuned_qubits, tunes)
EXPECTED = {
    ("heavy-hex", None, "monolithic"): (35, 130, 0, 0, 0),
    ("heavy-hex", None, "streaming"): (42, 130, 0, 0, 0),
    ("heavy-hex", None, "adaptive"): (42, 130, 0, 0, 0),
    ("heavy-hex", "greedy", "monolithic"): (130, 130, 95, 153, 153),
    ("heavy-hex", "greedy", "streaming"): (130, 130, 88, 130, 130),
    ("heavy-hex", "greedy", "adaptive"): (64, 64, 38, 59, 59),
    ("heavy-hex", "anneal", "monolithic"): (130, 130, 95, 475, 1616),
    ("heavy-hex", "anneal", "streaming"): (130, 130, 88, 381, 1263),
    ("heavy-hex", "anneal", "adaptive"): (64, 64, 38, 198, 680),
    ("square", None, "monolithic"): (3, 130, 0, 0, 0),
    ("square", None, "streaming"): (1, 130, 0, 0, 0),
    ("square", None, "adaptive"): (1, 64, 0, 0, 0),
    ("square", "greedy", "monolithic"): (77, 130, 74, 330, 338),
    ("square", "greedy", "streaming"): (79, 130, 78, 345, 352),
    ("square", "greedy", "adaptive"): (79, 130, 78, 345, 352),
    ("square", "anneal", "monolithic"): (126, 130, 123, 1304, 5280),
    ("square", "anneal", "streaming"): (126, 130, 125, 1429, 5817),
    ("square", "anneal", "adaptive"): (62, 64, 61, 677, 2670),
}


@pytest.mark.parametrize(
    "topology, strategy, sampler",
    sorted(EXPECTED, key=lambda key: (key[0], key[1] or "", key[2])),
    ids=lambda value: value or "untuned",
)
def test_sampler_counts_are_pinned(topology, strategy, sampler):
    tuning = None if strategy is None else TuningOptions.build(strategy)
    result = simulate_yield_point(
        SIGMA,
        STEP,
        NUM_QUBITS,
        batch_size=BATCH,
        seed=SEED,
        topology=topology,
        tuning=tuning,
        **SAMPLERS[sampler],
    )
    assert isinstance(result, RepairedYieldResult) == (tuning is not None)
    counts = (
        result.num_collision_free,
        result.batch_size,
        getattr(result, "num_repaired", 0),
        getattr(result, "tuned_qubits", 0),
        getattr(result, "total_tunes", 0),
    )
    assert counts == EXPECTED[(topology, strategy, sampler)]
    assert result.ci_low <= result.estimate <= result.ci_high


def test_survivor_devices_are_pinned():
    arch = get_architecture("heavy-hex")
    allocation = arch.allocate(
        arch.lattice(NUM_QUBITS), spec=arch.spec(step_ghz=STEP)
    )
    result, survivors = simulate_yield_with_devices(
        allocation,
        FabricationModel(sigma_ghz=SIGMA),
        BATCH,
        np.random.default_rng(SEED),
        draw_seed=SEED,
    )
    assert result.num_collision_free == survivors.shape[0] == 35
    assert survivors.shape[1] == NUM_QUBITS
    assert float(survivors.sum()) == SURVIVOR_SUM

