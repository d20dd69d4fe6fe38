"""Array-backed MCM assembly vs the dict-per-module reference.

``assemble_mcms`` screens the in-order placements of all remaining
blocks in one call, draws reshuffle candidates with one
``Generator.permuted`` call and link errors with one vector draw per
module, and carries every module's errors as one row.
``assembly_reference.py`` holds the loop it replaced.  The contract is
bit-identity: the same modules (placement, frequencies, error values in
the same edge order), the same counters, and the same final generator
state, so every later draw from the stream is unchanged too.

The first class pins the NumPy behaviour that identity rests on; CI runs
this file on the oldest supported NumPy as well.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_reference import reference_assemble_mcms
from repro.analysis.study import StudyConfig, compute_chiplet_bin, compute_mcm_result
from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin
from repro.core.chiplet import ChipletDesign
from repro.core.collisions import CollisionThresholds
from repro.core.fabrication import FabricationModel
from repro.core.mcm import MCMDesign
from repro.device.calibration import washington_cx_model
from repro.device.noise import LinkErrorModel
from repro.tuning import TuningOptions

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


# ---------------------------------------------------------------------- #
# The NumPy contract the assembly is built on
# ---------------------------------------------------------------------- #
class TestNumpyContract:
    @given(
        seed=SEEDS,
        mu=st.floats(min_value=-8.0, max_value=0.0),
        sigma=st.floats(min_value=0.0, max_value=3.0),
        size=st.integers(min_value=0, max_value=64),
    )
    def test_vector_link_draw_equals_scalar_draws(self, seed, mu, sigma, size):
        """One ``sample(size=n)`` == n scalar samples, values and state."""
        model = LinkErrorModel(mu=mu, sigma=sigma, max_infidelity=0.05)
        vector_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        vector = model.sample(vector_rng, size=size)
        scalar = np.asarray([model.sample(scalar_rng) for _ in range(size)], dtype=float)
        assert vector.tobytes() == scalar.tobytes()
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state

    @given(seed=SEEDS, rows=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20)
    def test_permuted_tile_equals_stacked_permutations(self, seed, rows):
        """Row-wise ``permuted`` of a tiled arange == stacked ``permutation``."""
        for n in range(2, 51):
            permuted_rng = np.random.default_rng((seed, n))
            stacked_rng = np.random.default_rng((seed, n))
            permuted = permuted_rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
            stacked = np.stack([stacked_rng.permutation(n) for _ in range(rows)])
            assert np.array_equal(permuted, stacked)
            assert permuted_rng.bit_generator.state == stacked_rng.bit_generator.state

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=0.5), min_size=1, max_size=300
        ),
        rows=st.integers(min_value=1, max_value=4),
    )
    def test_last_cumsum_column_equals_sequential_sum(self, values, rows):
        """``cumsum(axis=1)[:, -1]`` is the left-to-right ``+=`` total."""
        matrix = np.tile(np.asarray(values), (rows, 1))
        total = 0.0
        for value in values:
            total += value
        assert np.cumsum(matrix, axis=1)[:, -1].tolist() == [total] * rows

    def test_pairwise_sum_differs_from_the_sequential_total(self):
        """Why the study does not use ``.sum()``: it sums pairwise."""
        inputs = [[0.1] * 10, np.random.default_rng(0).random(1000).tolist()]
        differs = []
        for values in inputs:
            total = 0.0
            for value in values:
                total += value
            differs.append(float(np.asarray(values).sum()) != total)
        assert any(differs)


# ---------------------------------------------------------------------- #
# Assembly parity
# ---------------------------------------------------------------------- #
@functools.cache
def _bin(size: int, sigma: float, batch: int, tuned: bool):
    design = ChipletDesign.build(size)
    return fabricate_chiplet_bin(
        design,
        FabricationModel(sigma_ghz=sigma),
        washington_cx_model(seed=11),
        batch_size=batch,
        rng=np.random.default_rng((size, batch)),
        tuning=TuningOptions() if tuned else None,
    )


#: (chiplet size, sigma GHz, batch, tuned) of each bin.  ``noisy`` is
#: the high-sigma bin where in-order placements collide often enough for
#: reshuffle time-outs and set-asides to happen.
BINS = {
    "10": (10, 0.014, 300, False),
    "20": (20, 0.014, 300, False),
    "40": (40, 0.014, 200, False),
    "noisy": (10, 0.04, 1500, False),
    "tuned": (20, 0.03, 400, True),
}

#: Wider windows than the bins were screened with, so some known-good
#: dies fail their own on-chip criteria at assembly time.
WIDE = CollisionThresholds(type1_ghz=0.03, type6_ghz=0.04)

#: (bin, grid, max_reshuffles, max_mcms, thresholds)
CASES = [
    ("10", (1, 2), 100, None, None),
    ("10", (2, 2), 100, None, None),
    ("10", (3, 3), 100, None, None),
    ("20", (2, 2), 100, None, None),
    ("20", (2, 3), 100, None, None),
    ("40", (1, 3), 100, None, None),
    ("40", (2, 2), 100, None, None),
    ("noisy", (2, 2), 100, None, None),
    ("noisy", (2, 2), 0, None, None),
    ("noisy", (2, 3), 100, 4, None),
    ("20", (2, 2), 100, 7, None),
    ("20", (2, 2), 0, None, None),
    ("20", (2, 2), 100, None, WIDE),
    ("tuned", (2, 2), 100, None, None),
    ("tuned", (2, 3), 100, 5, None),
]


def _assemble_both(bin_name, grid, max_reshuffles, max_mcms, thresholds=None):
    chiplet_bin = _bin(*BINS[bin_name])
    design = MCMDesign.build(chiplet_bin.design, *grid)
    link_model = LinkErrorModel.from_mean_median()
    shipped_rng = np.random.default_rng(2022)
    reference_rng = np.random.default_rng(2022)
    shipped = assemble_mcms(
        chiplet_bin, design, link_model, shipped_rng, max_reshuffles, max_mcms, thresholds
    )
    reference = reference_assemble_mcms(
        chiplet_bin,
        design,
        link_model,
        reference_rng,
        max_reshuffles,
        max_mcms,
        thresholds,
    )
    return design, shipped, reference, shipped_rng, reference_rng


@pytest.mark.parametrize("bin_name,grid,max_reshuffles,max_mcms,thresholds", CASES)
def test_assembly_matches_reference(bin_name, grid, max_reshuffles, max_mcms, thresholds):
    design, shipped, reference, shipped_rng, reference_rng = _assemble_both(
        bin_name, grid, max_reshuffles, max_mcms, thresholds
    )
    assert shipped.num_mcms == reference.num_mcms > 0
    assert shipped.reshuffles == reference.reshuffles
    assert shipped.chiplets_set_aside == reference.chiplets_set_aside
    assert shipped.chiplets_used == reference.chiplets_used
    assert shipped.repaired_chiplets_used == reference.repaired_chiplets_used
    edges = design.edges()
    for module, expected in zip(shipped.mcms, reference.mcms):
        # Equal frequency bytes means the same chiplets in the same slots.
        assert module.frequencies_ghz.tobytes() == expected.frequencies_ghz.tobytes()
        assert list(expected.edge_errors) == edges
        assert module.errors.tolist() == list(expected.edge_errors.values())
        assert module.edge_errors == expected.edge_errors
        assert module.average_error == float(
            np.mean(list(expected.edge_errors.values()))
        )
        assert module.num_repaired_chiplets == expected.num_repaired_chiplets
        assert module.tuned_qubits == expected.tuned_qubits
    assert shipped_rng.bit_generator.state == reference_rng.bit_generator.state


def test_cases_reach_set_asides_timeouts_and_repairs():
    """The case list exercises every path the batched screen changes."""
    _, noisy, *_ = _assemble_both("noisy", (2, 2), 100, None)
    assert noisy.chiplets_set_aside > 0
    assert noisy.reshuffles >= 100 * noisy.chiplets_set_aside  # time-outs
    _, no_reshuffles, *_ = _assemble_both("noisy", (2, 2), 0, None)
    assert no_reshuffles.chiplets_set_aside > 0 and no_reshuffles.reshuffles == 0
    _, capped, *_ = _assemble_both("20", (2, 2), 100, 7)
    assert capped.num_mcms == 7
    _, wide, *_ = _assemble_both("20", (2, 2), 100, None, WIDE)
    assert wide.chiplets_set_aside > 0
    _, tuned, *_ = _assemble_both("tuned", (2, 2), 100, None)
    assert tuned.repaired_chiplets_used > 0
    assert any(module.tuned_qubits for module in tuned.mcms)


@pytest.mark.parametrize("grid", [(2, 2), (3, 3)])
def test_study_error_sums_equal_the_sequential_dict_loop(cx_model, grid):
    """``compute_mcm_result``'s per-module sums are bit-identical to the
    historical ``+=`` over each module's ``edge_errors`` dict."""
    config = StudyConfig(chiplet_batch_size=400, chiplet_sizes=(20,), seed=3)
    chiplet_bin = compute_chiplet_bin(config, cx_model, 20)
    result = compute_mcm_result(config, chiplet_bin, 20, grid)
    link_edges = result.design.link_edges()
    on_chip_sums, link_sums = [], []
    for mcm in result.assembly.mcms:
        on_chip = link = 0.0
        for edge, error in mcm.edge_errors.items():
            if edge in link_edges:
                link += error
            else:
                on_chip += error
        on_chip_sums.append(on_chip)
        link_sums.append(link)
    assert result.on_chip_error_sums.tolist() == on_chip_sums
    assert result.link_error_sums.tolist() == link_sums
    assert len(on_chip_sums) > 10
