"""Repair strategies vs the verbatim scalar reference loops.

``GreedyLocalRepair.repair`` batches its candidate screening and both
shipped strategies re-check candidates through the scalar
``CollisionGraph.local_violations`` kernel; ``repair_reference.py`` holds
the historical loops, which keep the numpy subset re-check.  The contract
is bit-identity: same accepts, same landing points, same rng consumption
— checked here on random collided batches by comparing outcomes *and*
the generators' final bit-level state.  The kernel itself is pinned to
the numpy subset evaluation by a Hypothesis property over heavy-hex,
square and ring allocations, NaN and threshold-edge frequencies
included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repair_reference import reference_anneal_repair, reference_greedy_repair
from repro.core.architecture import get_architecture
from repro.core.fabrication import FabricationModel
from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel
from repro.tuning.strategies import AnnealingRepair, GreedyLocalRepair


@pytest.fixture(scope="module")
def allocation():
    arch = get_architecture(None)
    return arch.allocate(arch.lattice(40))


@pytest.fixture(scope="module")
def graph(allocation):
    return CollisionGraph(allocation)


def collided_devices(allocation, graph, sigma, batch, seed):
    fab = FabricationModel(sigma_ghz=sigma)
    freqs = fab.sample_batch(allocation, batch, np.random.default_rng(seed))
    return [f for f in freqs if graph.total_violations(f) > 0]


def assert_same_outcome(fast, ref):
    np.testing.assert_array_equal(fast.frequencies, ref.frequencies)
    assert fast.violations_before == ref.violations_before
    assert fast.violations_after == ref.violations_after
    assert fast.tuned_qubits == ref.tuned_qubits
    assert fast.total_tunes == ref.total_tunes
    assert fast.tuned_qubit_indices == ref.tuned_qubit_indices


TUNERS = [
    pytest.param(TunerModel(), id="default-noisy"),
    pytest.param(TunerModel(precision_sigma_ghz=0.0), id="noiseless-batch-path"),
    pytest.param(TunerModel(max_tunes_per_qubit=1), id="budget-1"),
    pytest.param(
        TunerModel(max_shift_ghz=0.05, precision_sigma_ghz=0.0), id="short-reach"
    ),
]


class TestGreedyParity:
    @pytest.mark.parametrize("tuner", TUNERS)
    @pytest.mark.parametrize("sigma,seed", [(0.05, 11), (0.014, 7)])
    def test_matches_reference_on_random_collided_batches(
        self, allocation, graph, tuner, sigma, seed
    ):
        strategy = GreedyLocalRepair()
        devices = collided_devices(allocation, graph, sigma, batch=40, seed=seed)
        assert devices, "collided sample went empty; raise sigma"
        for index, freqs in enumerate(devices):
            rng_fast = np.random.default_rng(1000 + index)
            rng_ref = np.random.default_rng(1000 + index)
            fast = strategy.repair(graph, freqs, tuner, rng_fast)
            ref = reference_greedy_repair(strategy, graph, freqs, tuner, rng_ref)
            assert_same_outcome(fast, ref)
            # Stream parity: any divergence in *when* noise is drawn
            # would desynchronise every later device in a batch.
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_initial_violations_shortcut_matches(self, allocation, graph, tuner):
        strategy = GreedyLocalRepair()
        [freqs] = collided_devices(allocation, graph, 0.05, batch=8, seed=3)[:1]
        initial = graph.total_violations(freqs)
        fast = strategy.repair(
            graph, freqs, tuner, np.random.default_rng(5), initial_violations=initial
        )
        ref = reference_greedy_repair(
            strategy,
            graph,
            freqs,
            tuner,
            np.random.default_rng(5),
            initial_violations=initial,
        )
        np.testing.assert_array_equal(fast.frequencies, ref.frequencies)
        assert fast.total_tunes == ref.total_tunes

    def test_noop_tuner_consumes_no_randomness(self, graph, allocation):
        [freqs] = collided_devices(allocation, graph, 0.05, batch=8, seed=3)[:1]
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        outcome = GreedyLocalRepair().repair(
            graph, freqs, TunerModel(max_tunes_per_qubit=0), rng
        )
        assert outcome.frequencies is freqs
        assert rng.bit_generator.state == state


class TestAnnealParity:
    @pytest.mark.parametrize("tuner", TUNERS)
    def test_matches_reference_on_random_collided_batches(
        self, allocation, graph, tuner
    ):
        strategy = AnnealingRepair()
        devices = collided_devices(allocation, graph, 0.05, batch=12, seed=11)
        assert devices, "collided sample went empty; raise sigma"
        for index, freqs in enumerate(devices):
            rng_fast = np.random.default_rng(2000 + index)
            rng_ref = np.random.default_rng(2000 + index)
            fast = strategy.repair(graph, freqs, tuner, rng_fast)
            ref = reference_anneal_repair(strategy, graph, freqs, tuner, rng_ref)
            assert_same_outcome(fast, ref)
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestConstraintNeighbors:
    def test_includes_self(self, graph):
        for qubit in range(graph.num_qubits):
            assert qubit in graph.constraint_neighbors(qubit)

    def test_symmetric(self, graph):
        for qubit in range(graph.num_qubits):
            for other in graph.constraint_neighbors(qubit):
                assert qubit in graph.constraint_neighbors(int(other))

    def test_matches_edge_and_triple_membership(self, graph):
        expected = [{q} for q in range(graph.num_qubits)]
        for u, v in zip(graph.edge_control, graph.edge_target):
            expected[int(u)].add(int(v))
            expected[int(v)].add(int(u))
        for c, a, b in zip(graph.triple_control, graph.triple_a, graph.triple_b):
            for q in (int(c), int(a), int(b)):
                expected[q].update({int(c), int(a), int(b)})
        for qubit in range(graph.num_qubits):
            assert set(graph.constraint_neighbors(qubit).tolist()) == expected[qubit]

    def test_sorted_and_stable(self, graph):
        first = graph.constraint_neighbors(0)
        assert list(first) == sorted(first)
        assert graph.constraint_neighbors(0) is first  # memoised


def _kernel_graphs():
    """Heavy-hex, square and ring graphs, with the plan's anharmonicities
    and with per-qubit jittered ones (so swapping two qubits' alphas in
    a criterion changes its value)."""
    graphs = {}
    for name in ("heavy-hex", "square", "ring"):
        arch = get_architecture(name)
        for size in (12, 27):
            allocation = arch.allocate(arch.lattice(size))
            jitter = np.random.default_rng(size).normal(0.0, 0.02, size)
            jittered = dataclasses.replace(
                allocation, anharmonicities=allocation.anharmonicities + jitter
            )
            graphs[(name, size, "plan")] = CollisionGraph(allocation)
            graphs[(name, size, "jittered")] = CollisionGraph(jittered)
    return graphs


_KERNEL_GRAPHS = _kernel_graphs()


def _place_on_transition(graph, freqs, qubit, rng):
    """Move ``qubit`` onto adjacent doubles where its numpy count changes.

    Scans a grid finer than the narrowest window for neighbouring points
    with different touched-criteria counts, picks one such pair, and
    bisects over the float64 bit patterns (monotone for positive values)
    down to one ulp.  At such a point a change of rounding (operand
    order, ``<`` vs ``<=``) flips the criterion.
    """
    edge_idx, triple_idx = graph.touched(qubit)

    def count(value):
        freqs[qubit] = value
        return graph.edge_violations(freqs, edge_idx) + graph.triple_violations(
            freqs, triple_idx
        )

    original = freqs[qubit]
    points = original + np.linspace(-0.4, 0.4, 257)
    counts = [count(x) for x in points]
    changes = [i for i in range(len(points) - 1) if counts[i] != counts[i + 1]]
    if not changes:
        freqs[qubit] = original
        return
    i = changes[int(rng.integers(len(changes)))]
    below = counts[i]
    lo_bits, hi_bits = (int(np.float64(x).view(np.int64)) for x in points[i : i + 2])
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if count(float(np.int64(mid).view(np.float64))) == below:
            lo_bits = mid
        else:
            hi_bits = mid
    freqs[qubit] = np.int64(rng.choice([lo_bits, hi_bits])).view(np.float64)


@st.composite
def kernel_cases(draw):
    """A graph plus float64 frequencies that stress every comparison.

    Frequencies scatter around the design plan; some entries are then
    placed exactly one criterion window away from a random neighbour
    (either side), some onto a one-ulp transition of their touched
    count, and some set to NaN.
    """
    graph = _KERNEL_GRAPHS[draw(st.sampled_from(sorted(_KERNEL_GRAPHS)))]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    sigma = draw(st.sampled_from([0.005, 0.03, 0.15]))
    freqs = graph.ideal + rng.normal(0.0, sigma, graph.num_qubits)
    th = graph.thresholds
    windows = [
        th.type1_ghz,
        th.type2_ghz,
        th.type3_ghz,
        th.type5_ghz,
        th.type6_ghz,
        th.type7_ghz,
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        qubit = int(rng.integers(graph.num_qubits))
        neighbors = graph.constraint_neighbors(qubit)
        other = int(neighbors[rng.integers(neighbors.size)])
        offset = windows[int(rng.integers(len(windows)))]
        offset += graph.alpha[other] if rng.random() < 0.3 else 0.0
        freqs[qubit] = freqs[other] + (offset if rng.random() < 0.5 else -offset)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        _place_on_transition(graph, freqs, int(rng.integers(graph.num_qubits)), rng)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        freqs[int(rng.integers(graph.num_qubits))] = np.nan
    return graph, freqs


class TestLocalViolationsKernel:
    @given(kernel_cases())
    def test_matches_numpy_subset_evaluation(self, case):
        graph, freqs = case
        for qubit in range(graph.num_qubits):
            edge_idx, triple_idx = graph.touched(qubit)
            expected = graph.edge_violations(
                freqs, edge_idx
            ) + graph.triple_violations(freqs, triple_idx)
            assert graph.local_violations(freqs, qubit) == expected
