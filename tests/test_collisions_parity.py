"""The shared Table I criteria vs the verbatim scalar loop.

``find_collisions`` and ``CollisionGraph`` evaluate the elementwise
criterion functions of :mod:`repro.core.collisions`;
``collisions_reference.py`` holds the per-edge, per-triple loop they
replaced.  The contract is bit-identity: the same ``collisions`` list,
order included, and graph counts equal to the counts read off the
reference report.  Devices scatter around heavy-hex, square and ring
plans (with the plan's and with jittered anharmonicities), some qubits
sit exactly one criterion window from a neighbour or on a one-ulp
transition of the reference, and some are NaN.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, strategies as st

from collisions_reference import reference_find_collisions
from repro.core.architecture import get_architecture
from repro.core.collisions import (
    COLLISION_TYPES,
    CollisionThresholds,
    find_collisions,
)
from repro.tuning.graph import CollisionGraph

#: Wider windows than Table I, so collided devices carry every type.
_WIDE = CollisionThresholds(0.05, 0.02, 0.06, 0.05, 0.05, 0.05)


def _plans():
    plans = {}
    families = (("heavy-hex", (65, 127)), ("square", (25, 64)), ("ring", (12, 40)))
    for name, sizes in families:
        arch = get_architecture(name)
        for size in sizes:
            allocation = arch.allocate(arch.lattice(size))
            jitter = np.random.default_rng(size).normal(0.0, 0.02, size)
            plans[(name, size, "plan")] = allocation
            plans[(name, size, "jittered")] = dataclasses.replace(
                allocation, anharmonicities=allocation.anharmonicities + jitter
            )
    return plans


_PLANS = _plans()


def _place_on_transition(allocation, freqs, qubit, ctype, thresholds, rng):
    """Move ``qubit`` onto adjacent doubles where the reference's count of
    type ``ctype`` changes.

    Scans a grid finer than the narrowest window with the shipped
    evaluator (cheap), then bisects a bracket where the reference count
    changes over the float64 bit patterns (monotone for positive values)
    down to one ulp.  At such a point a change of rounding (operand
    order, ``<`` vs ``<=``) flips the criterion.
    """

    def count(value, find=reference_find_collisions):
        freqs[qubit] = value
        return find(allocation, freqs, thresholds).counts_by_type()[ctype]

    original = freqs[qubit]
    points = original + np.linspace(-0.4, 0.4, 257)
    counts = [count(x, find_collisions) for x in points]
    changes = [i for i in range(len(points) - 1) if counts[i] != counts[i + 1]]
    if changes:
        i = changes[int(rng.integers(len(changes)))]
        below = count(points[i])
        if count(points[i + 1]) != below:
            lo_bits, hi_bits = (
                int(np.float64(x).view(np.int64)) for x in points[i : i + 2]
            )
            while hi_bits - lo_bits > 1:
                mid = (lo_bits + hi_bits) // 2
                if count(float(np.int64(mid).view(np.float64))) == below:
                    lo_bits = mid
                else:
                    hi_bits = mid
            freqs[qubit] = np.int64(rng.choice([lo_bits, hi_bits])).view(np.float64)
            return
    freqs[qubit] = original


@st.composite
def parity_cases(draw):
    """A plan, thresholds and a small batch of devices that stress every
    comparison: scatter around the design, exact window offsets from a
    neighbour (either side, optionally through its anharmonicity), one-ulp
    transitions of the reference and NaN entries."""
    allocation = _PLANS[draw(st.sampled_from(sorted(_PLANS)))]
    thresholds = draw(st.sampled_from([CollisionThresholds(), _WIDE]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    sigma = draw(st.sampled_from([0.005, 0.03, 0.15]))
    rows = draw(st.integers(min_value=1, max_value=3))
    batch = allocation.ideal_frequencies + rng.normal(
        0.0, sigma, (rows, allocation.num_qubits)
    )
    edges = allocation.directed_edges
    windows = [
        thresholds.type1_ghz,
        thresholds.type2_ghz,
        thresholds.type3_ghz,
        thresholds.type5_ghz,
        thresholds.type6_ghz,
        thresholds.type7_ghz,
    ]
    for freqs in batch:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            qubit, other = edges[int(rng.integers(edges.shape[0]))][rng.permutation(2)]
            offset = windows[int(rng.integers(len(windows)))]
            if rng.random() < 0.3:
                offset += allocation.anharmonicities[other]
            freqs[qubit] = freqs[other] + (offset if rng.random() < 0.5 else -offset)
        types = COLLISION_TYPES if allocation.control_triples.size else (1, 2, 3, 4)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            qubit = int(rng.integers(allocation.num_qubits))
            ctype = types[int(rng.integers(len(types)))]
            _place_on_transition(allocation, freqs, qubit, ctype, thresholds, rng)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            freqs[int(rng.integers(allocation.num_qubits))] = np.nan
    return allocation, thresholds, batch


@given(parity_cases())
def test_find_collisions_matches_reference_in_order(case):
    allocation, thresholds, batch = case
    for freqs in batch:
        expected = reference_find_collisions(allocation, freqs, thresholds)
        assert find_collisions(allocation, freqs, thresholds).collisions == (
            expected.collisions
        )


@given(parity_cases())
def test_graph_counts_match_reference_report(case):
    allocation, thresholds, batch = case
    graph = CollisionGraph(allocation, thresholds)
    reports = [reference_find_collisions(allocation, f, thresholds) for f in batch]
    for freqs, report in zip(batch, reports):
        per_qubit = np.zeros(allocation.num_qubits, dtype=np.int64)
        for _, qubits in report.collisions:
            per_qubit[list(qubits)] += 1
        assert graph.total_violations(freqs) == report.num_collisions
        np.testing.assert_array_equal(graph.per_qubit_violations(freqs), per_qubit)
        np.testing.assert_array_equal(
            graph.violating_qubits(freqs), np.flatnonzero(per_qubit)
        )
    np.testing.assert_array_equal(
        graph.batch_total_violations(batch), [r.num_collisions for r in reports]
    )


def test_fixed_batches_match_reference_and_reach_every_type():
    """Wide-window batches at as-fabricated scatter, one NaN included,
    match the reference and violate every criterion type on every plan
    (types 5-7 wherever a plan has control triples)."""
    for (name, size, _), allocation in _PLANS.items():
        rng = np.random.default_rng(size)
        batch = allocation.ideal_frequencies + rng.normal(0.0, 0.15, (20, size))
        batch[0, 0] = np.nan
        seen = set()
        for freqs in batch:
            report = reference_find_collisions(allocation, freqs, _WIDE)
            assert find_collisions(allocation, freqs, _WIDE).collisions == (
                report.collisions
            )
            seen.update(ctype for ctype, _ in report.collisions)
        expected = COLLISION_TYPES if allocation.control_triples.size else (1, 2, 3, 4)
        assert seen == set(expected), (name, size)
