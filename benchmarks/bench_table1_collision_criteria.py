"""E-T1 — Table I: the seven frequency-collision criteria.

Regenerates a demonstration of each collision type and benchmarks the
vectorised collision checker on a Washington-sized device batch.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures.tables import run_table1_collision_criteria
from repro.core.collisions import collision_free_mask
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import HeavyHexThreeFrequencyPlan
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


def test_table1_criteria_demonstration(benchmark):
    """Every Table I criterion is detected on a crafted three-qubit device."""
    result = benchmark(run_table1_collision_criteria)
    print("\n[Table I] collision-criteria demonstrations")
    print(result.format_table())
    assert all(row["detected"] for row in result.rows)


def test_table1_vectorised_checker_throughput(benchmark):
    """Throughput of the batched collision check on a 127-qubit device."""
    lattice = heavy_hex_by_qubit_count(127)
    allocation = HeavyHexThreeFrequencyPlan().allocate(lattice)
    frequencies = FabricationModel(0.014).sample_batch(
        allocation, 1000, np.random.default_rng(0)
    )
    mask = benchmark(collision_free_mask, allocation, frequencies)
    print(f"\n[Table I] collision-free fraction on 127 qubits: {mask.mean():.3f}")
    assert 0.0 <= mask.mean() <= 1.0
