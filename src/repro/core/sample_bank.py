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
shares it for free, the same per-worker contract as the routing cache.  Counters mirror into the process
metrics registry as ``repro_sample_bank_events_total{event}`` so worker
deltas ship home through the engine's existing metrics merge.

Opting out
----------
Set ``REPRO_SAMPLE_BANK=0`` (or ``false``/``off``/``no``), pass
``--no-sample-bank`` to the CLI, or call
``set_sample_bank_enabled(False)``.  Disabled calls sample directly from
the supplied generator — bit-identical output, no caching, no counters.
``REPRO_SAMPLE_BANK_BYTES`` overrides the default 256 MiB cap of the
global bank.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Hashable

import numpy as np

from repro.obs.metrics import REGISTRY

__all__ = [
    "SampleBank",
    "banked_standard_normal",
    "sample_bank_enabled",
    "set_sample_bank_enabled",
    "sample_bank_stats",
    "clear_sample_bank",
    "DEFAULT_SAMPLE_BANK_BYTES",
    "SAMPLE_BANK_ENV",
    "SAMPLE_BANK_BYTES_ENV",
]

#: Opt-out switch — any of 0/false/off/no disables banking process-wide.
SAMPLE_BANK_ENV = "REPRO_SAMPLE_BANK"

#: Byte-cap override for the global bank.
SAMPLE_BANK_BYTES_ENV = "REPRO_SAMPLE_BANK_BYTES"

#: Default memory cap.  A full Fig. 4 size grid at batch 1000 banks
#: ~45 MB of draws; 256 MiB leaves room for study-sized monolithic
#: batches without letting a worker process balloon.
DEFAULT_SAMPLE_BANK_BYTES = 256 * 1024 * 1024

#: Mirror of the per-bank stats dict on the process metrics registry —
#: worker processes increment their local registry and the engine merges
#: the shipped deltas, so ``/metrics`` sees bank traffic from every
#: process (same shape as ``repro_routing_cache_events_total``).
_BANK_EVENTS = REGISTRY.counter(
    "repro_sample_bank_events_total",
    "Sample bank traffic by outcome (hit, miss, eviction, bypass, oversize)",
    labels=("event",),
)


class SampleBank:
    """Content-addressed, byte-capped LRU of standard-normal chunks.

    Entries map ``(draw_seed, shape)`` to the read-only draw array plus
    the generator state after drawing it.  Thread-safe; generation
    happens under the lock (NumPy's sampler holds the GIL anyway, so
    serialising it costs threads nothing).
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is None:
            max_bytes = int(
                os.environ.get(SAMPLE_BANK_BYTES_ENV, DEFAULT_SAMPLE_BANK_BYTES)
            )
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, tuple[np.ndarray, dict]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "bypasses": 0,
            "oversize": 0,
        }

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
            self._count("bypasses", "bypass")
            return rng.standard_normal(shape)
        if rng.bit_generator.state != fresh:
            # The generator was not freshly seeded with draw_seed — the
            # caller broke the keying contract.  Sampling directly is
            # always correct; banking here would poison future hits.
            self._count("bypasses", "bypass")
            return rng.standard_normal(shape)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                draws, end_state = entry
                self._entries.move_to_end(key)
                self._stats["hits"] += 1
                _BANK_EVENTS.inc(event="hit")
                rng.bit_generator.state = end_state
                return draws
            self._stats["misses"] += 1
            _BANK_EVENTS.inc(event="miss")
            draws = rng.standard_normal(shape)
            draws.flags.writeable = False
            if draws.nbytes > self.max_bytes:
                self._stats["oversize"] += 1
                _BANK_EVENTS.inc(event="oversize")
                return draws
            self._entries[key] = (draws, rng.bit_generator.state)
            self._bytes += draws.nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, (evicted, _) = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._stats["evictions"] += 1
                _BANK_EVENTS.inc(event="eviction")
            return draws

    def _count(self, stat: str, event: str) -> None:
        with self._lock:
            self._stats[stat] += 1
        _BANK_EVENTS.inc(event=event)

    def stats(self) -> dict:
        """Counters + occupancy of this bank."""
        with self._lock:
            return {**self._stats, "entries": len(self._entries), "bytes": self._bytes}

    def clear(self) -> None:
        """Drop every banked chunk and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            for counter in self._stats:
                self._stats[counter] = 0


#: The process-wide bank every fabrication call shares.
_BANK = SampleBank()

#: Programmatic enable/disable; ``None`` defers to the environment.
_ENABLED_OVERRIDE: bool | None = None


def sample_bank_enabled() -> bool:
    """Whether banking is active (programmatic override, then env var)."""
    if _ENABLED_OVERRIDE is not None:
        return _ENABLED_OVERRIDE
    raw = os.environ.get(SAMPLE_BANK_ENV, "").strip().lower()
    return raw not in {"0", "false", "off", "no"}


def set_sample_bank_enabled(enabled: bool | None) -> None:
    """Force banking on/off for this process (``None`` restores env control)."""
    global _ENABLED_OVERRIDE
    _ENABLED_OVERRIDE = enabled


def banked_standard_normal(
    draw_seed: Hashable | None,
    shape: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Standard-normal draws through the global bank.

    With ``draw_seed=None`` (no content identity) or banking disabled,
    samples directly from ``rng`` — bit-identical, no caching.
    """
    if draw_seed is None or not sample_bank_enabled():
        return rng.standard_normal(shape)
    return _BANK.standard_normal(draw_seed, shape, rng)


def sample_bank_stats() -> dict:
    """Counters + occupancy of the process-wide bank."""
    return {**_BANK.stats(), "enabled": sample_bank_enabled()}


def clear_sample_bank() -> None:
    """Drop every banked chunk in the process-wide bank."""
    _BANK.clear()
