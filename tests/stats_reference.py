"""Monolithic reference for the chunked yield sampler.

:func:`repro.core.yield_model.simulate_yield_chunked` fabricates and
screens one spawn-seeded chunk at a time.  :func:`materialize_seeded_batch`
draws the same chunks into one ``(batch_size, num_qubits)`` array, so a
test can screen the whole batch at once and compare counts bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.fabrication import FabricationModel
from repro.core.frequencies import FrequencyAllocation
from repro.stats.streaming import chunk_layout, chunk_seed


def materialize_seeded_batch(
    allocation: FrequencyAllocation,
    fabrication: FabricationModel,
    batch_size: int,
    chunk_size: int,
    seed: int | None,
) -> np.ndarray:
    """Every chunk of the ``(seed, chunk_size)`` scheme, in one array.

    Chunk ``i`` is drawn from a fresh generator on ``chunk_seed(seed, i)``
    and written into a preallocated array, so peak memory is the batch
    itself.
    """
    out = np.empty((batch_size, allocation.num_qubits), dtype=np.float64)
    start = 0
    for index, length in enumerate(chunk_layout(batch_size, chunk_size)):
        out[start : start + length] = fabrication.sample_batch(
            allocation, length, np.random.default_rng(chunk_seed(seed, index))
        )
        start += length
    return out
