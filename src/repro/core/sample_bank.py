"""Common-random-number bank of standard-normal fabrication draws.

The fabrication model (paper Section III-C) is a pure affine transform of
standard-normal draws: ``f = ideal + sigma * z``.  NumPy's
``Generator.normal(0, sigma, size)`` is bitwise identical to
``sigma * standard_normal(size)`` at the same generator state (pinned by
the property suite in ``tests/test_sample_bank.py``), so the base draws
``z`` depend only on the seed and the batch shape — not on sigma, not on
the detuning step.  A sweep that holds its seed fixed while scanning
sigma or step therefore re-draws the *same* ``z`` at every grid cell.

This module banks those draws: a content-addressed, memory-capped LRU
keyed on ``(draw_seed, shape)`` — for the chunked estimators that is the
``(seed, chunk_index, num_qubits, length)`` identity, since the chunk's
own derived seed (see :func:`repro.stats.streaming.chunk_seed`) encodes
``(seed, chunk_index)`` and the shape encodes ``(length, num_qubits)``.
A 20-sigma sweep then does ONE sampling pass and 19 cheap affine
re-scalings, bit-identical to re-sampling.

Determinism contract
--------------------
``draw_seed`` must be exactly the seed the supplied generator was
freshly constructed from, with no draws taken yet.  The bank *verifies*
this on every call (a fresh ``default_rng(draw_seed)`` state compare,
microseconds against a chunk of normals) and silently falls back to
plain sampling on mismatch (counted as a ``bypass``), so a violated
contract can never produce wrong samples.  Each entry stores the
generator state *after* the draw and restores it on a hit, so downstream
consumers of the same generator — the repair stream continuing a chunk's
rng — observe literally the same stream whether the draw was banked or
not.

Because ziggurat sampling consumes a variable number of raw words per
normal, the end state cannot be recomputed cheaply — storing it is what
makes hits safe for continued generators.

The bank is process-global: every yield point that runs in one process
(in-process at ``jobs=1``, or one pool worker's share of a batch)
shares it for free, the same per-worker contract as the routing cache.
Its storage is a :class:`repro.engine.cache.BoundedLRU` costed in bytes
(256 MiB), which counts traffic into the process metrics registry as
``repro_sample_bank_events_total{event}`` so worker deltas ship home
through the engine's existing metrics merge.  A chunk larger than the
whole cap is served but not stored (an ``oversize`` event).

There is no off switch: banked and unbanked sampling are bit-identical
by contract, and the cap bounds the memory.  Tests that need an
unbanked reference swap ``_BANK`` for a zero-capacity bank, on which
every draw is ``oversize`` and comes straight from the generator.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.engine.cache import BoundedLRU

__all__ = [
    "SampleBank",
    "banked_standard_normal",
    "sample_bank_stats",
    "clear_sample_bank",
    "DEFAULT_SAMPLE_BANK_BYTES",
]

#: Default memory cap.  A full Fig. 4 size grid at batch 1000 banks
#: ~45 MB of draws; 256 MiB leaves room for study-sized monolithic
#: batches without letting a worker process balloon.
DEFAULT_SAMPLE_BANK_BYTES = 256 * 1024 * 1024


class SampleBank:
    """Content-addressed, byte-capped LRU of standard-normal chunks.

    Entries map ``(draw_seed, shape)`` to the read-only draw array plus
    the generator state after drawing it.  Thread-safe.
    """

    def __init__(self, max_bytes: int = DEFAULT_SAMPLE_BANK_BYTES) -> None:
        self._lru = BoundedLRU(
            max_bytes,
            "repro_sample_bank_events_total",
            "Sample bank traffic by outcome (hit, miss, eviction, bypass, oversize)",
            cost=lambda entry: entry[0].nbytes,
        )

    def standard_normal(
        self,
        draw_seed: Hashable,
        shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Banked ``rng.standard_normal(shape)``.

        ``rng`` must be freshly constructed from ``draw_seed``; hits
        restore the post-draw state so continued use of ``rng`` is
        bit-identical to having sampled.  The returned array is marked
        read-only (hits alias the stored entry) — scale it, don't
        mutate it.
        """
        try:
            key = (draw_seed, tuple(shape))
            hash(key)  # a list seed is seedable but not content-addressable
            fresh = np.random.default_rng(draw_seed).bit_generator.state
        except TypeError:
            # Unhashable or un-seedable draw key: not bankable.
            self._lru.count("bypass")
            return rng.standard_normal(shape)
        if rng.bit_generator.state != fresh:
            # The generator was not freshly seeded with draw_seed — the
            # caller broke the keying contract.  Sampling directly is
            # always correct; banking here would poison future hits.
            self._lru.count("bypass")
            return rng.standard_normal(shape)

        def draw() -> tuple[np.ndarray, dict]:
            draws = rng.standard_normal(shape)
            draws.flags.writeable = False
            return draws, rng.bit_generator.state

        draws, end_state = self._lru.get_or_build(key, draw)
        rng.bit_generator.state = end_state
        return draws

    def stats(self) -> dict:
        """Counters + occupancy (``entries``, ``bytes``) of this bank."""
        stats = self._lru.stats()
        stats["bytes"] = stats.pop("cost")
        return stats

    def clear(self) -> None:
        """Drop every banked chunk and reset the counters."""
        self._lru.clear()


#: The process-wide bank every fabrication call shares.
_BANK = SampleBank()


def banked_standard_normal(
    draw_seed: Hashable | None,
    shape: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Standard-normal draws through the global bank.

    With ``draw_seed=None`` (no content identity) samples directly from
    ``rng`` — bit-identical, no caching.
    """
    if draw_seed is None:
        return rng.standard_normal(shape)
    return _BANK.standard_normal(draw_seed, shape, rng)


def sample_bank_stats() -> dict:
    """Counters + occupancy of the process-wide bank."""
    return _BANK.stats()


def clear_sample_bank() -> None:
    """Drop every banked chunk in the process-wide bank."""
    _BANK.clear()
