"""B-COMPILER — the pass-pipeline application stack, measured.

Three measurements, written to ``benchmarks/BENCH_compiler.json``:

* ``fig10_engine``: the Fig. 10 compile+score sweep run sequentially
  vs. through the execution engine on a warmed study (device
  construction excluded, so the timing isolates the compile tasks).
  Bit-identical rows are asserted unconditionally; the speedup is
  reported with worker context and flagged (not asserted) when the
  host cannot actually parallelise.
* ``fidelity_product``: the vectorised searchsorted+log10 scorer vs.
  the historical per-gate Python loop on a long compiled trace —
  value-identical within the 1e-9 golden gate, with the measured
  speedup.
* ``noise_aware_routing``: fidelity delta of noise-aware vs. basic
  routing — a deterministic poisoned-edge win plus the per-benchmark
  deltas on a real assembled MCM device (reported, sign not asserted:
  on near-uniform error maps the detours can cost more than they
  save).
* ``routing_cache``: a sequential fig10-style compile loop on a
  500-qubit grid device, paying the historical per-compile eager
  all-pairs Dijkstra vs. the process-wide routing cache with lazy
  per-source trees.  Bit-identical routes asserted; the >=2x speedup
  IS asserted — the cache exists to delete redundant Dijkstra work,
  which no core count or noise floor can excuse missing.
* ``layout_search``: ``find_long_path`` vs. the historical iterator-stack
  DFS (kept verbatim below) on the 160-qubit 2x2 MCM of Table II at
  ``length=128``, where all 12 starts exhaust their step budget.
  Identical results and a >=2x speedup are asserted.
"""

from __future__ import annotations

import json
import os
import time
from math import inf, log10
from pathlib import Path

from repro.analysis.figures.fig10_apps import run_fig10_applications
from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.circuits.benchmarks import build_benchmark
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout, find_long_path
from repro.compiler.routing import route_circuit, route_circuit_noise_aware
from repro.compiler.transpile import transpile
from repro.core.chiplet import ChipletDesign
from repro.core.mcm import MCMDesign
from repro.engine import ExecutionEngine
from repro.simulation.esp import fidelity_product
from repro.topology.coupling import CouplingMap

from conftest import bench_batch_size, bench_jobs

RESULT_PATH = Path(__file__).parent / "BENCH_compiler.json"

_RECORD: dict = {}


def _loop_fidelity_product(two_qubit_edges, edge_errors):
    """The historical per-gate Python loop, verbatim (the reference)."""
    errors = {
        (min(u, v), max(u, v)): float(e) for (u, v), e in edge_errors.items()
    }
    total = 0.0
    count = 0
    for u, v in two_qubit_edges:
        error = errors[(min(u, v), max(u, v))]
        count += 1
        fidelity = 1.0 - error
        if fidelity <= 0.0:
            return -inf, count
        total += log10(fidelity)
    return total, count


def _dfs_find_long_path(coupling, length, attempts=12, step_budget=200_000):
    """The historical iterator-stack layout search, verbatim (the reference)."""
    graph = coupling.graph()
    if length <= 0:
        return []
    if length > graph.number_of_nodes():
        return None
    nodes = sorted(graph.nodes, key=lambda n: (graph.degree[n], n))
    starts = nodes[:attempts]

    for start in starts:
        path = [start]
        on_path = {start}
        # Iterator stack: candidates still to try from each path position.
        stack = [iter(sorted(graph.neighbors(start), key=lambda n: (graph.degree[n], n)))]
        steps = 0
        while stack and steps < step_budget:
            steps += 1
            try:
                candidate = next(stack[-1])
            except StopIteration:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if candidate in on_path:
                continue
            path.append(candidate)
            on_path.add(candidate)
            if len(path) >= length:
                return path
            stack.append(
                iter(sorted(graph.neighbors(candidate), key=lambda n: (graph.degree[n], n)))
            )
    return None


def _flush():
    RESULT_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"[compiler] wrote {RESULT_PATH}")


def test_fig10_engine_parallel_matches_sequential_wall_clock():
    """Engine-parallel fig10 compiles are bit-identical; timings recorded."""
    config = StudyConfig(
        chiplet_batch_size=bench_batch_size(600),
        monolithic_batch_size=bench_batch_size(600),
        chiplet_sizes=(10, 20),
        seed=2022,
    )
    study = ArchitectureStudy(config)
    benchmarks = ("bv", "qaoa", "ghz")

    # Warm the study so both timed runs see only compile+score work.
    run_fig10_applications(study, benchmarks=("bv",), seed=5)

    started = time.perf_counter()
    sequential = run_fig10_applications(study, benchmarks=benchmarks, seed=5)
    seq_seconds = time.perf_counter() - started

    jobs = bench_jobs()
    engine = ExecutionEngine(jobs=jobs, use_cache=False)
    started = time.perf_counter()
    parallel = run_fig10_applications(
        study, benchmarks=benchmarks, seed=5, engine=engine
    )
    par_seconds = time.perf_counter() - started

    assert parallel.rows == sequential.rows, "parallel fig10 diverged from sequential"

    speedup = seq_seconds / par_seconds if par_seconds > 0 else float("inf")
    workers_used = engine.stats.workers_used
    cores = os.cpu_count() or 1
    context = None
    if speedup < 1.0:
        if cores <= 1:
            context = (
                f"host has {cores} core(s): the auto backend runs these "
                "batches in-process, so ~1.0x is the ceiling and sub-1.0x "
                "readings inside the noise band are measurement jitter"
            )
        elif workers_used <= 1:
            context = (
                "the pool fell back to (or was effectively) one worker; "
                "parallel overhead with no parallel execution"
            )
        elif cores < jobs:
            context = (
                f"host has {cores} core(s) for {jobs} requested jobs; "
                "task pickling dominates on an oversubscribed pool"
            )
        else:
            context = "per-task compile time too small to amortise pool startup"

    _RECORD["fig10_engine"] = {
        "rows": len(sequential.rows),
        "compile_tasks": engine.stats.tasks_total,
        "jobs": jobs,
        "workers_used": workers_used,
        "cores": cores,
        "backend": engine.stats.backend,
        "tasks_fused": engine.stats.tasks_fused,
        "fusion_batches": engine.stats.fusion_batches,
        "sequential_seconds": round(seq_seconds, 4),
        "parallel_seconds": round(par_seconds, 4),
        "speedup": round(speedup, 3),
        # Below 0.9 is a real regression; 0.9-1.0 on a host that cannot
        # parallelise is measurement noise around the sequential downgrade.
        "speedup_regression": speedup < 0.9,
        "speedup_context": context,
        "bit_identical": True,
    }
    print(
        f"\n[compiler] fig10 x{len(sequential.rows)} rows: sequential "
        f"{seq_seconds:.2f}s, engine {par_seconds:.2f}s "
        f"({workers_used} worker(s) of {jobs} jobs on {cores} cores) "
        f"-> speedup {speedup:.2f}x"
    )
    if context:
        print(f"[compiler] WARNING: {context}")
    _flush()


def test_vectorised_fidelity_product_matches_loop_and_is_fast():
    """One numpy pass over edge indices == the per-gate loop, measured."""
    coupling = CouplingMap(
        num_qubits=100, edges=[(i, i + 1) for i in range(99)]
    )
    errors = {
        (i, i + 1): 0.0005 + 0.0001 * (i % 17) for i in range(99)
    }
    from repro.device.device import Device
    import numpy as np

    device = Device(
        name="bench-line",
        coupling=coupling,
        frequencies_ghz=np.full(100, 5.0),
        labels=np.zeros(100, dtype=int),
        edge_errors=errors,
    )
    # A long synthetic trace (deterministic, ~200k gates).
    trace = [(i % 99, i % 99 + 1) for i in range(200_000)]

    started = time.perf_counter()
    loop_total, loop_count = _loop_fidelity_product(trace, errors)
    loop_seconds = time.perf_counter() - started

    started = time.perf_counter()
    score = fidelity_product(trace, device)
    vector_seconds = time.perf_counter() - started

    assert score.num_two_qubit_gates == loop_count
    assert abs(score.log10_fidelity - loop_total) < 1e-9, (
        "vectorised fidelity product drifted beyond the golden gate"
    )
    speedup = loop_seconds / vector_seconds if vector_seconds > 0 else float("inf")
    assert speedup > 1.0, "vectorised fidelity product failed to beat the loop"

    _RECORD["fidelity_product"] = {
        "num_gates": len(trace),
        "loop_seconds": round(loop_seconds, 4),
        "vectorised_seconds": round(vector_seconds, 5),
        "speedup": round(speedup, 1),
        "max_abs_log10_deviation": abs(score.log10_fidelity - loop_total),
    }
    print(
        f"\n[compiler] fidelity product x{len(trace)} gates: loop "
        f"{loop_seconds:.3f}s, vectorised {vector_seconds:.4f}s "
        f"-> speedup {speedup:.0f}x"
    )
    _flush()


def test_routing_cache_speedup_on_large_mcm():
    """Shared routing cache vs per-compile eager Dijkstra, bit-identical.

    The device is MCM-scale (a 20x25 grid, 500 qubits) so the weighted
    shortest-path structure dominates each compile the way it does in
    the fig10/appsweep loops; the circuits are the sweep's benchmark
    kinds at a realistic width.  The legacy arm emulates the historical
    cost exactly: every compile rebuilds the weights and eagerly
    computes the all-pairs predecessor matrix.  The cached arm compiles
    the same circuits against one warm cache entry whose Dijkstra rows
    fill lazily — bit-identical routes, a fraction of the sources.
    """
    import numpy as np

    from repro.compiler.routing import (
        clear_routing_cache,
        routing_cache_stats,
        routing_weights,
    )
    from repro.device.device import Device

    rows_n, cols_n = 20, 25
    n = rows_n * cols_n
    edges = []
    for r in range(rows_n):
        for c in range(cols_n):
            q = r * cols_n + c
            if c + 1 < cols_n:
                edges.append((q, q + 1))
            if r + 1 < rows_n:
                edges.append((q, q + cols_n))
    errors = {
        edge: 0.0005 + 0.0004 * ((i * 7) % 13) / 13 for i, edge in enumerate(edges)
    }
    device = Device(
        name="bench-grid",
        coupling=CouplingMap(num_qubits=n, edges=edges),
        frequencies_ghz=np.full(n, 5.0),
        labels=np.zeros(n, dtype=int),
        edge_errors=errors,
    )
    circuits = [
        build_benchmark(name, 40, seed=seed)
        for name in ("bv", "ghz", "qaoa")
        for seed in (1, 2)
    ]

    started = time.perf_counter()
    legacy = []
    for circuit in circuits:
        clear_routing_cache()
        routing_weights(device.coupling, device).predecessor_matrix()
        legacy.append(transpile(circuit, device, routing="noise-aware"))
    legacy_seconds = time.perf_counter() - started

    clear_routing_cache()
    started = time.perf_counter()
    cached = [
        transpile(circuit, device, routing="noise-aware") for circuit in circuits
    ]
    cached_seconds = time.perf_counter() - started
    stats = routing_cache_stats()
    clear_routing_cache()

    for cold, warm in zip(legacy, cached):
        assert warm.two_qubit_edges == cold.two_qubit_edges, (
            "cached routing diverged from the per-compile eager build"
        )
        assert warm.num_swaps == cold.num_swaps
    assert stats["misses"] == 1 and stats["hits"] == len(circuits) - 1
    assert stats["sources_computed"] < n, "lazy rows degenerated to all-pairs"

    speedup = legacy_seconds / cached_seconds if cached_seconds > 0 else float("inf")
    # Unlike the pool benchmarks there is no core-count excuse here:
    # both arms are sequential in one process, the cache only deletes
    # redundant Dijkstra work.  The issue's acceptance floor is 2x.
    assert speedup >= 2.0, (
        f"routing cache speedup {speedup:.2f}x fell below the 2x floor"
    )

    _RECORD["routing_cache"] = {
        "num_qubits": n,
        "compiles": len(circuits),
        "cores": os.cpu_count() or 1,
        "legacy_eager_seconds": round(legacy_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_regression": speedup < 2.0,
        "speedup_context": (
            "both arms sequential in one process: the speedup is pure "
            "deleted Dijkstra work, independent of core count"
        ),
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "sources_computed": stats["sources_computed"],
        "bit_identical": True,
    }
    print(
        f"\n[compiler] routing cache x{len(circuits)} compiles on {n}q grid: "
        f"legacy {legacy_seconds:.3f}s, cached {cached_seconds:.3f}s "
        f"-> speedup {speedup:.2f}x "
        f"({stats['sources_computed']}/{n} Dijkstra sources computed)"
    )
    _flush()


def test_noise_aware_routing_fidelity_delta():
    """Noise-aware routing wins the poisoned-edge case; deltas recorded."""
    # Deterministic adversarial case: the direct coupling is terrible,
    # the detour is clean — noise-aware must produce a higher-fidelity
    # route than basic.
    coupling = CouplingMap(num_qubits=4, edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
    errors = {(0, 1): 0.4, (0, 2): 0.001, (1, 3): 0.001, (2, 3): 0.001}
    circuit = QuantumCircuit(4)
    for _ in range(5):
        circuit.cx(0, 1)
    layout = Layout({i: i for i in range(4)})
    basic = route_circuit(circuit, coupling, layout)
    aware = route_circuit_noise_aware(circuit, coupling, layout, errors)

    def trace_of(routed):
        edges = []
        for gate, edge in zip(
            (g for g in routed.circuit if g.num_qubits == 2), routed.two_qubit_edges
        ):
            edges.extend([edge] * (3 if gate.name == "swap" else 1))
        return edges

    basic_score = fidelity_product(trace_of(basic), errors)
    aware_score = fidelity_product(trace_of(aware), errors)
    assert aware_score.log10_fidelity > basic_score.log10_fidelity, (
        "noise-aware routing lost the poisoned-edge case"
    )

    # Aggregate deltas on a real assembled MCM device (reported only).
    config = StudyConfig(
        chiplet_batch_size=bench_batch_size(600),
        monolithic_batch_size=bench_batch_size(600),
        chiplet_sizes=(20,),
        seed=2022,
    )
    study = ArchitectureStudy(config)
    device = study.mcm_result(20, (2, 2)).best_device
    deltas = {}
    for name in ("bv", "qaoa", "ghz"):
        bench = build_benchmark(name, 64, seed=5)
        basic_t = transpile(bench, device, routing="basic")
        aware_t = transpile(bench, device, routing="noise-aware")
        basic_f = fidelity_product(basic_t.two_qubit_edges, device).log10_fidelity
        aware_f = fidelity_product(aware_t.two_qubit_edges, device).log10_fidelity
        deltas[name] = {
            "basic_log10_fidelity": basic_f,
            "noise_aware_log10_fidelity": aware_f,
            "delta_log10": aware_f - basic_f,
            "basic_swaps": basic_t.num_swaps,
            "noise_aware_swaps": aware_t.num_swaps,
        }

    _RECORD["noise_aware_routing"] = {
        "poisoned_edge_case": {
            "basic_log10_fidelity": basic_score.log10_fidelity,
            "noise_aware_log10_fidelity": aware_score.log10_fidelity,
            "delta_log10": aware_score.log10_fidelity - basic_score.log10_fidelity,
        },
        "mcm_2x2_20q_deltas": deltas,
    }
    print(
        f"\n[compiler] poisoned edge: basic {basic_score.log10_fidelity:.3f}, "
        f"noise-aware {aware_score.log10_fidelity:.3f}"
    )
    for name, row in deltas.items():
        print(
            f"[compiler] {name}: delta log10F "
            f"{row['delta_log10']:+.3f} (swaps {row['basic_swaps']} -> "
            f"{row['noise_aware_swaps']})"
        )
    _flush()


def test_layout_search_speedup_on_table2_mcm():
    """Relabelled pre-sorted DFS vs the historical search, identical results.

    The 2x2 MCM of 40-qubit chiplets (160 qubits) at Table II's 80 %
    utilisation is the worst case of the application sweeps: no path of
    128 qubits is found, so every one of the 12 starts spends its full
    200k-step budget in both arms.
    """
    mcm = MCMDesign.build(ChipletDesign.build(40), 2, 2)
    coupling = mcm.coupling_map()
    length = round(0.8 * mcm.num_qubits)
    coupling.graph()  # build the cached graph outside both timed arms

    started = time.perf_counter()
    reference = _dfs_find_long_path(coupling, length)
    reference_seconds = time.perf_counter() - started

    started = time.perf_counter()
    result = find_long_path(coupling, length)
    kernel_seconds = time.perf_counter() - started

    assert result == reference, "layout search diverged from the historical DFS"
    speedup = reference_seconds / kernel_seconds if kernel_seconds > 0 else float("inf")
    # Both arms are sequential and do the same number of steps: the
    # speedup is pure per-step interpreter work, not core count.
    assert speedup >= 2.0, (
        f"layout search speedup {speedup:.2f}x fell below the 2x floor"
    )

    _RECORD["layout_search"] = {
        "num_qubits": mcm.num_qubits,
        "length": length,
        "found": result is not None,
        "cores": os.cpu_count() or 1,
        "reference_seconds": round(reference_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_regression": speedup < 2.0,
        "speedup_context": (
            "both arms sequential in one process with equal step counts: "
            "the speedup is per-step work, independent of core count"
        ),
        "bit_identical": True,
    }
    print(
        f"\n[compiler] layout search on {mcm.num_qubits}q MCM, length {length}: "
        f"reference {reference_seconds:.3f}s, kernel {kernel_seconds:.3f}s "
        f"-> speedup {speedup:.2f}x"
    )
    _flush()
