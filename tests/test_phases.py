"""Per-phase wall-clock accounting: unit semantics + engine aggregation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.circuits.benchmarks import build_benchmark
from repro.compiler.transpile import transpile
from repro.core.architecture import get_architecture
from repro.core.collisions import count_collision_free
from repro.core.fabrication import FabricationModel
from repro.engine.phases import collecting, phase
from repro.engine.runner import ExecutionEngine
from repro.topology.coupling import CouplingMap


class TestPhasePrimitive:
    def test_noop_without_collector(self):
        # Must be safe (and cheap) on hot paths outside the engine.
        with phase("mask"):
            pass

    def test_collects_named_buckets(self):
        with collecting() as buckets:
            with phase("sample"):
                time.sleep(0.01)
            with phase("mask"):
                time.sleep(0.01)
        assert set(buckets) == {"sample", "mask"}
        assert all(seconds > 0 for seconds in buckets.values())

    def test_nested_phase_time_is_exclusive(self):
        with collecting() as buckets:
            with phase("repair"):
                time.sleep(0.01)
                with phase("mask"):
                    time.sleep(0.05)
                time.sleep(0.01)
        assert set(buckets) == {"repair", "mask"}
        assert buckets["mask"] >= 0.04
        # The outer bucket excludes the inner stretch entirely.
        assert buckets["repair"] < buckets["mask"]

    def test_same_phase_accumulates(self):
        with collecting() as buckets:
            for _ in range(3):
                with phase("score"):
                    time.sleep(0.005)
        assert set(buckets) == {"score"}
        assert buckets["score"] >= 0.01

    def test_nested_collector_shadows_outer(self):
        # The task trampoline collects per task; an enclosing frame
        # must see nothing for that stretch.
        with collecting() as outer:
            with collecting() as inner:
                with phase("compile"):
                    time.sleep(0.005)
        assert "compile" in inner
        assert outer == {}

    def test_transpile_books_every_compile_pass(self):
        coupling = CouplingMap(
            num_qubits=12, edges=[(i, i + 1) for i in range(11)] + [(0, 6)]
        )
        circuit = build_benchmark("qaoa", 8, seed=3)
        started = time.perf_counter()
        with collecting() as buckets:
            transpile(circuit, coupling)
        wall = time.perf_counter() - started
        assert {
            "compile.decompose",
            "compile.layout",
            "compile.route",
            "compile.swap-expand",
            "compile.metrics",
        } <= set(buckets)
        # The pass buckets are exclusive of the enclosing ``compile`` phase.
        assert sum(buckets.values()) <= wall

    def test_thread_isolation(self):
        seen = {}

        def worker():
            with collecting() as buckets:
                with phase("mask"):
                    time.sleep(0.005)
            seen.update(buckets)

        with collecting() as main_buckets:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert "mask" in seen
        assert main_buckets == {}


class TestEngineAggregation:
    def _mask_kwargs(self, num_calls=3):
        arch = get_architecture(None)
        allocation = arch.allocate(arch.lattice(20))
        fab = FabricationModel(sigma_ghz=0.05)
        return [
            {
                "allocation": allocation,
                "frequencies": fab.sample_batch(
                    allocation, 50, np.random.default_rng(seed)
                ),
            }
            for seed in range(num_calls)
        ]

    def test_sequential_backend_books_mask_seconds(self):
        engine = ExecutionEngine(jobs=1, use_cache=False)
        engine.map_calls(count_collision_free, self._mask_kwargs(), name="mask-task")
        assert engine.stats.seconds_by_phase.get("mask", 0.0) > 0.0

    def test_process_pool_books_mask_seconds(self):
        engine = ExecutionEngine(jobs=2, use_cache=False)
        engine.map_calls(count_collision_free, self._mask_kwargs(), name="mask-task")
        assert engine.stats.seconds_by_phase.get("mask", 0.0) > 0.0

    def test_phase_seconds_bounded_by_family_seconds(self):
        engine = ExecutionEngine(jobs=1, use_cache=False)
        engine.map_calls(count_collision_free, self._mask_kwargs(), name="mask-task")
        total_phase = sum(engine.stats.seconds_by_phase.values())
        total_family = sum(engine.stats.seconds_by_family.values())
        # Exclusive accounting: phases can never exceed task wall-clock.
        assert total_phase <= total_family + 1e-6

    def test_cache_hits_book_no_phase_time(self, tmp_path):
        from repro.engine.cache import ResultCache

        kwargs = self._mask_kwargs()
        first = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        first.map_calls(count_collision_free, kwargs, name="mask-task")
        second = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        second.map_calls(count_collision_free, kwargs, name="mask-task")
        assert second.stats.cache_hits == len(kwargs)
        assert second.stats.seconds_by_phase == {}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig8_books_assemble_and_characterise(self, jobs):
        from repro.analysis.registry import EXPERIMENTS

        engine = ExecutionEngine(jobs=jobs, use_cache=False)
        started = time.perf_counter()
        EXPERIMENTS.get("fig8").runner(engine, batch_size=60)
        wall = time.perf_counter() - started
        buckets = engine.stats.seconds_by_phase
        assert {"assemble", "characterise", "mask", "sample"} <= set(buckets)
        assert buckets["assemble"] > 0.0
        # Exclusive accounting: the buckets never exceed the tasks'
        # wall-clock, and in-process that is bounded by the run's.
        total_phase = sum(buckets.values())
        assert total_phase <= sum(engine.stats.seconds_by_family.values()) + 1e-6
        if jobs == 1:
            assert total_phase <= wall
