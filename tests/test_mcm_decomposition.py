"""An MCM's collision criteria = per-slot chiplet criteria + cross-chip ones.

``assemble_mcms`` screens every chiplet once on its own plan and every
placement only on the design's ``cross_chip`` criteria.  That is exact
while each criterion of the module that does not span two chips is the
chiplet's own criterion on one slot (labels are tiled, anharmonicities
come from one spec).  These tests check it for every MCM design that
fig8, table2 and fig10 build: structurally, and on random module
batches at the Table I windows and at wider ones.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.chiplet import PAPER_CHIPLET_SIZES, ChipletDesign
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.mcm import MCMDesign, mcm_dimensions_for, square_dimensions_for

#: Wider windows than chiplets are binned at, as in the assembly parity
#: suite: known-good dies can fail their own criteria here.
WIDE = CollisionThresholds(type1_ghz=0.03, type6_ghz=0.04)

#: table2's chiplet sizes (``--full``), all assembled as 2x2 modules.
TABLE2_SIZES = (10, 20, 40, 60, 90)


def _grids(size: int) -> list[tuple[int, int]]:
    """fig8's grids (fig10 reads the square ones), plus table2's 2x2."""
    grids = set(mcm_dimensions_for(size)) | set(square_dimensions_for(size))
    if size in TABLE2_SIZES:
        grids.add((2, 2))
    return sorted(grids)


@functools.cache
def _chiplet(size: int) -> ChipletDesign:
    return ChipletDesign.build(size)


def _rows(array: np.ndarray) -> list[tuple[int, ...]]:
    return sorted(map(tuple, array.tolist()))


def _split(design: MCMDesign) -> tuple[np.ndarray, np.ndarray]:
    """Module qubits the cross-chip criteria read, and the criteria as
    module-indexed ``(edges, triples)``."""
    cross = design.cross_chip
    columns = cross.slots * design.chiplet.num_qubits + cross.qubits
    return columns, (
        columns[cross.allocation.directed_edges],
        columns[cross.allocation.control_triples],
    )


def _free_by_parts(design: MCMDesign, frequencies, thresholds) -> np.ndarray:
    """On-chip verdicts of every slot AND the cross-chip mask."""
    qc = design.chiplet.num_qubits
    on_chip = collision_free_mask(
        design.chiplet.allocation, frequencies.reshape(-1, qc), thresholds
    ).reshape(-1, design.num_chips)
    columns, _ = _split(design)
    cross = collision_free_mask(
        design.cross_chip.allocation, frequencies[:, columns], thresholds
    )
    return on_chip.all(axis=1) & cross


@pytest.mark.parametrize("size", PAPER_CHIPLET_SIZES)
def test_intra_slot_criteria_are_the_tiled_chiplet_criteria(size):
    chiplet = _chiplet(size)
    qc = chiplet.num_qubits
    for grid in _grids(size):
        design = MCMDesign.build(chiplet, *grid)
        allocation = design.allocation
        columns, (cross_edges, cross_triples) = _split(design)
        assert np.array_equal(columns, np.unique(columns))
        for name in ("labels", "ideal_frequencies", "anharmonicities"):
            assert np.array_equal(
                getattr(design.cross_chip.allocation, name),
                getattr(allocation, name)[columns],
            )
        for module, own, cross in (
            (allocation.directed_edges, chiplet.allocation.directed_edges, cross_edges),
            (allocation.control_triples, chiplet.allocation.control_triples, cross_triples),
        ):
            chips = module // qc
            intra = module[(chips == chips[:, :1]).all(axis=1)]
            tiled = np.concatenate(
                [own + slot * qc for slot in range(design.num_chips)]
            )
            assert _rows(intra) == _rows(tiled)
            # The cross-chip criteria are exactly the rest, each on two chips.
            assert _rows(np.concatenate([intra, cross])) == _rows(module)
            cross_chips = cross // qc
            assert not (cross_chips == cross_chips[:, :1]).all(axis=1).any()


@pytest.mark.parametrize("size", PAPER_CHIPLET_SIZES)
def test_full_mask_equals_on_chip_and_cross_chip_verdicts(size):
    chiplet = _chiplet(size)
    rng = np.random.default_rng(size)
    for grid in _grids(size):
        design = MCMDesign.build(chiplet, *grid)
        # One noise level per row, from near-ideal modules (which only
        # links can break) to ones that collide everywhere.
        sigmas = np.geomspace(0.001, 0.03, 48)[:, np.newaxis]
        frequencies = design.allocation.ideal_frequencies + sigmas * rng.standard_normal(
            (sigmas.size, design.num_qubits)
        )
        for thresholds in (None, WIDE):
            full = collision_free_mask(design.allocation, frequencies, thresholds)
            assert np.array_equal(
                full, _free_by_parts(design, frequencies, thresholds)
            )


@pytest.mark.parametrize("size,grid", [(20, (2, 2)), (40, (3, 3))])
def test_known_good_placements_fail_only_across_links(size, grid):
    """Placements of known-good dies reach every verdict combination:
    free, cross-chip failures at the Table I windows, and on-chip
    failures at the wider ones."""
    chiplet = _chiplet(size)
    design = MCMDesign.build(chiplet, *grid)
    rng = np.random.default_rng(7)
    dies = chiplet.allocation.ideal_frequencies + rng.normal(
        0.0, 0.014, size=(4000, chiplet.num_qubits)
    )
    good = dies[collision_free_mask(chiplet.allocation, dies)]
    placements = rng.integers(0, good.shape[0], size=(400, design.num_chips))
    frequencies = good[placements].reshape(placements.shape[0], -1)
    table1 = collision_free_mask(design.allocation, frequencies)
    wide = collision_free_mask(design.allocation, frequencies, WIDE)
    assert np.array_equal(table1, _free_by_parts(design, frequencies, None))
    assert np.array_equal(wide, _free_by_parts(design, frequencies, WIDE))
    assert 0 < table1.sum() < table1.size
    on_chip_wide = collision_free_mask(
        chiplet.allocation, frequencies.reshape(-1, chiplet.num_qubits), WIDE
    )
    assert not on_chip_wide.all()
