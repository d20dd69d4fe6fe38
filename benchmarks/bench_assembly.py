"""E-ASM — MCM assembly: array-backed vs. the dict-per-module reference.

``assemble_mcms`` screens the in-order placements of every remaining
chiplet block in one ``collision_free_mask`` call, draws all reshuffle
candidates of a block with one ``Generator.permuted`` call, draws a
module's link errors as one vector, and builds each module's error row
with one ``np.concatenate``.  ``tests/assembly_reference.py`` keeps the
loop it replaced: one in-order screen per subset, stacked
``rng.permutation`` calls, one scalar draw per link and a freshly keyed
``edge_errors`` dict per module.

This benchmark assembles the same chiplet bins into the same MCM designs
with both, asserts module-for-module identical outcomes (frequencies,
error values in edge order, counters and the generator's end state), and
writes the measured speedup of the whole ``assemble_mcms`` call to
``benchmarks/BENCH_assembly.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.assembly import assemble_mcms, fabricate_chiplet_bin
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import FabricationModel
from repro.core.mcm import MCMDesign, mcm_dimensions_for
from repro.device.calibration import washington_cx_model
from repro.device.noise import LinkErrorModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from assembly_reference import reference_assemble_mcms  # noqa: E402

RESULT_PATH = Path(__file__).parent / "BENCH_assembly.json"

#: (chiplet qubits, sigma GHz, batch size) of the benchmark bins.  The
#: laser-tuned bins assemble every MCM grid of their size within the
#: paper's 500-qubit budget, as fig8 does; at 0.05 GHz the 10-qubit bin's
#: in-order placements collide regularly (tens of reshuffles per subset,
#: time-outs and set-asides), the regime the batched reshuffle search
#: accelerates.
BINS = ((10, 0.014, 1000), (20, 0.014, 1000), (10, 0.05, 3000))

SEED = 2022
REPEATS = 3

#: The array-backed assembly must beat the reference by at least this.
SPEEDUP_FLOOR = 1.5


def _workload():
    cx_model = washington_cx_model(seed=11)
    jobs = []
    for size, sigma, batch in BINS:
        chiplet = ChipletDesign.build(size)
        chiplet_bin = fabricate_chiplet_bin(
            chiplet,
            FabricationModel(sigma_ghz=sigma),
            cx_model,
            batch_size=batch,
            rng=np.random.default_rng(SEED),
        )
        grids = mcm_dimensions_for(size) if sigma < 0.03 else [(2, 2)]
        jobs.extend((chiplet_bin, MCMDesign.build(chiplet, *grid)) for grid in grids)
    return jobs


def _run(assemble, jobs):
    """Best-of-``REPEATS`` seconds, plus each job's outcome and rng."""
    link_model = LinkErrorModel.from_mean_median()
    best = float("inf")
    for _ in range(REPEATS):
        outcomes = []
        started = time.perf_counter()
        for index, (chiplet_bin, design) in enumerate(jobs):
            rng = np.random.default_rng((SEED, index))
            outcomes.append((assemble(chiplet_bin, design, link_model, rng), rng))
        best = min(best, time.perf_counter() - started)
    return outcomes, best


def test_array_assembly_matches_reference_and_is_fast():
    """Module-, counter- and stream-identical to the reference, and faster."""
    jobs = _workload()
    reference, ref_seconds = _run(reference_assemble_mcms, jobs)
    shipped, new_seconds = _run(assemble_mcms, jobs)

    modules = reshuffles = set_aside = 0
    for (chiplet_bin, design), (ref, ref_rng), (new, new_rng) in zip(
        jobs, reference, shipped
    ):
        assert new.num_mcms == ref.num_mcms
        assert new.reshuffles == ref.reshuffles
        assert new.chiplets_set_aside == ref.chiplets_set_aside
        assert new.chiplets_used == ref.chiplets_used
        for module, expected in zip(new.mcms, ref.mcms):
            assert module.frequencies_ghz.tobytes() == expected.frequencies_ghz.tobytes()
            assert module.errors.tolist() == list(expected.edge_errors.values())
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, (
            "random stream diverged from the reference"
        )
        modules += new.num_mcms
        reshuffles += new.reshuffles
        set_aside += new.chiplets_set_aside
    assert set_aside > 0, "no set-aside: the noisy bin no longer exercises re-screens"

    speedup = ref_seconds / new_seconds if new_seconds > 0 else float("inf")
    # Both arms are sequential in one process over the same assemblies:
    # the speedup is per-module interpreter work, not core count.
    assert speedup >= SPEEDUP_FLOOR, (
        f"array assembly speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor"
    )

    record = {
        "benchmark": "mcm_assembly",
        "bins": [
            {"chiplet_qubits": size, "sigma_ghz": sigma, "batch_size": batch}
            for size, sigma, batch in BINS
        ],
        "assemblies": len(jobs),
        "modules": modules,
        "total_reshuffles": reshuffles,
        "chiplets_set_aside": set_aside,
        "cores": os.cpu_count() or 1,
        "reference_seconds": round(ref_seconds, 4),
        "array_seconds": round(new_seconds, 4),
        "speedup": round(speedup, 3),
        "speedup_regression": speedup < SPEEDUP_FLOOR,
        "speedup_context": (
            "best of 3, both arms sequential in one process over the same "
            "assemblies: the speedup is per-module work, independent of "
            "core count"
        ),
        "bit_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\n[assembly] {len(jobs)} assemblies, {modules} modules, "
        f"{reshuffles} reshuffles, {set_aside} set aside: reference "
        f"{ref_seconds:.3f}s, array {new_seconds:.3f}s -> speedup {speedup:.2f}x"
    )
    print(f"[assembly] wrote {RESULT_PATH}")
