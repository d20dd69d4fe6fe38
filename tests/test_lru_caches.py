"""The one bounded-LRU helper behind every in-process cache.

Each check runs against the five live instances — the routing-weights
cache, the layout placement memo, the lattice and allocation memos, and
the sample bank's draw store — through their shared
:class:`repro.engine.cache.BoundedLRU` interface, with synthetic keys
and values of a known cost.  What each
cache keys and stores is tested beside its owner
(``test_routing_cache.py``, ``test_layout_cache.py``,
``test_architecture_cache.py``, ``test_sample_bank.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.compiler import layout, routing
from repro.core import architecture, sample_bank
from repro.engine.cache import LRU_STAT_KEYS
from repro.obs.metrics import REGISTRY


def _clear_all() -> None:
    routing.clear_routing_cache()
    architecture.clear_architecture_caches()
    sample_bank.clear_sample_bank()


def _counted(lru, metric: str) -> SimpleNamespace:
    """A cache costed 1 per entry: it holds ``capacity`` plain objects."""
    return SimpleNamespace(
        lru=lru, metric=metric, slots=lru.capacity, unit=1, value=object
    )


def _bank() -> SimpleNamespace:
    """The bank, costed in bytes: four fake draw arrays fill it."""
    lru = sample_bank._BANK._lru
    unit = lru.capacity // 4
    return SimpleNamespace(
        lru=lru,
        metric="repro_sample_bank_events_total",
        slots=4,
        unit=unit,
        value=lambda: (SimpleNamespace(nbytes=unit), None),
    )


CACHES = {
    "routing": lambda: _counted(routing._CACHE, "repro_routing_cache_events_total"),
    "layout": lambda: _counted(layout._CACHE, "repro_layout_cache_events_total"),
    "lattice": lambda: _counted(
        architecture._LATTICES, "repro_architecture_cache_events_total"
    ),
    "allocation": lambda: _counted(
        architecture._ALLOCATIONS, "repro_architecture_cache_events_total"
    ),
    "bank": _bank,
}


@pytest.fixture(params=sorted(CACHES))
def cache(request):
    _clear_all()
    yield CACHES[request.param]()
    _clear_all()


def build(cache, index):
    return cache.lru.get_or_build(("lru-test", index), cache.value)


class TestBoundedCaches:
    def test_capacity_bound(self, cache):
        for index in range(cache.slots + 3):
            build(cache, index)
        stats = cache.lru.stats()
        assert stats["entries"] == cache.slots
        assert stats["evictions"] == 3
        assert stats["cost"] == cache.slots * cache.unit <= cache.lru.capacity

    def test_eviction_is_least_recently_used(self, cache):
        for index in range(cache.slots):
            build(cache, index)
        build(cache, 0)  # touch: entry 1 is now the least recently used
        build(cache, cache.slots)  # one over capacity: evicts entry 1
        misses = cache.lru.stats()["misses"]
        build(cache, 0)
        assert cache.lru.stats()["misses"] == misses  # still resident
        build(cache, 1)
        assert cache.lru.stats()["misses"] == misses + 1  # was evicted

    def test_reinsert_does_not_double_count_cost(self, cache):
        """A build that loses a race to store its key keeps the winner."""
        key = ("lru-test", "raced")
        winner = []

        def racing_build():
            winner.append(cache.lru.get_or_build(key, cache.value))
            return cache.value()

        assert cache.lru.get_or_build(key, racing_build) is winner[0]
        stats = cache.lru.stats()
        assert stats["entries"] == 1
        assert stats["cost"] == cache.unit

    def test_clear_zeroes_counters_and_occupancy(self, cache):
        build(cache, 0)
        build(cache, 0)
        for index in range(cache.slots + 1):
            build(cache, index)
        cache.lru.clear()
        assert set(cache.lru.stats().values()) == {0}
        assert cache.lru.values() == []

    def test_registry_delta_equals_stats_delta(self, cache):
        build(cache, "warm")
        before = cache.lru.stats()
        marks = REGISTRY.checkpoint()
        for index in range(cache.slots + 2):
            build(cache, index)
        build(cache, cache.slots + 1)
        cache.lru.count("bypass")
        after = cache.lru.stats()
        moved = {
            entry["labels"][0]: entry["payload"]
            for entry in (REGISTRY.delta_since(marks) or {"entries": []})["entries"]
            if entry["name"] == cache.metric
        }
        assert moved["miss"] == cache.slots + 2
        for event, key in LRU_STAT_KEYS.items():
            assert moved.get(event, 0) == after[key] - before[key], event

    def test_concurrent_traffic_keeps_counts_and_bound(self, cache):
        """More threads than cores, a short switch interval: no lost
        update in the counters, and the bound and cost total hold."""
        import sys
        import threading

        threads, calls = 8, 300
        keys = cache.slots + 5

        def hammer(offset):
            for call in range(calls):
                build(cache, (offset + call) % keys)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = cache.lru.stats()
        assert stats["hits"] + stats["misses"] == threads * calls
        assert stats["entries"] <= cache.slots
        assert stats["cost"] == stats["entries"] * cache.unit
        assert len(cache.lru.values()) == stats["entries"]
