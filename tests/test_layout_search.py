"""The layout-path search: parity with the historical DFS, edges and bugfixes.

``find_long_path`` is a relabelled, pre-sorted DFS kernel that must return
exactly what the historical iterator-stack search returned (kept verbatim
in ``layout_reference.py``), including where the step budget truncates the
search.  Its edge behaviour (``length == 1``, argument validation) is
pinned here too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from layout_reference import reference_find_long_path
from repro.compiler.layout import find_long_path
from repro.core.chiplet import ChipletDesign
from repro.core.mcm import MCMDesign
from repro.topology.coupling import CouplingMap

BUDGETS = (1, 5, 50, 500, 5000, 200_000)


@pytest.fixture
def line5() -> CouplingMap:
    return CouplingMap(num_qubits=5, edges=[(i, i + 1) for i in range(4)])


@st.composite
def search_cases(draw):
    """A random graph (connected or not) and in-range search arguments."""
    n = draw(st.integers(2, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))
    if draw(st.booleans()):
        # A random spanning tree makes the graph connected.
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    coupling = CouplingMap(num_qubits=n, edges=sorted(edges))
    length = draw(st.integers(2, n + 1))
    attempts = draw(st.integers(1, 12))
    step_budget = draw(st.sampled_from(BUDGETS))
    return coupling, length, attempts, step_budget


@given(search_cases())
def test_matches_reference_search(case):
    coupling, length, attempts, step_budget = case
    expected = reference_find_long_path(coupling, length, attempts, step_budget)
    assert find_long_path(coupling, length, attempts, step_budget) == expected


def test_matches_reference_on_seeded_random_graphs():
    rng = random.Random(2022)
    for _ in range(400):
        n = rng.randint(2, 40)
        density = rng.random() * 0.3
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
        ]
        coupling = CouplingMap(num_qubits=n, edges=edges)
        args = (rng.randint(2, n + 1), rng.randint(1, 12), rng.choice(BUDGETS))
        assert find_long_path(coupling, *args) == reference_find_long_path(
            coupling, *args
        ), (n, edges, args)


def test_step_accounting_matches_reference_at_every_budget():
    # Sweeping the budget one step at a time moves the first budget at
    # which each search succeeds, so any change in what costs a step
    # (a skipped on-path neighbour, a backtrack) shows up here.
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(10, 18)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25
        ]
        coupling = CouplingMap(num_qubits=n, edges=edges)
        length = rng.randint(n - 4, n)
        for step_budget in range(1, 301):
            for attempts in (1, 3):
                args = (length, attempts, step_budget)
                assert find_long_path(coupling, *args) == reference_find_long_path(
                    coupling, *args
                ), (n, edges, args)


def _table2_mcm(chiplet_size: int) -> tuple[CouplingMap, int]:
    mcm = MCMDesign.build(ChipletDesign.build(chiplet_size), 2, 2)
    return mcm.coupling_map(), round(0.8 * mcm.num_qubits)


def test_table2_mcm_with_10_qubit_chiplets_embeds_a_path():
    coupling, length = _table2_mcm(10)
    path = find_long_path(coupling, length)
    assert path == reference_find_long_path(coupling, length)
    assert len(path) == length == len(set(path))
    assert all(coupling.has_edge(a, b) for a, b in zip(path, path[1:]))


def test_table2_mcm_with_20_qubit_chiplets_finds_no_path():
    coupling, length = _table2_mcm(20)
    assert reference_find_long_path(coupling, length) is None
    assert find_long_path(coupling, length) is None


def test_table2_mcm_with_40_qubit_chiplets_exhausts_its_budget():
    # The reference takes ~2.5 s here (all 12 starts burn 200k steps), so
    # only the new kernel runs; the property tests pin truncation parity.
    coupling, length = _table2_mcm(40)
    assert find_long_path(coupling, length) is None


def test_length_one_returns_the_first_start_alone(line5):
    # Endpoints have the lowest degree; qubit 0 sorts first.
    assert find_long_path(line5, 1) == [0]
    assert find_long_path(CouplingMap(num_qubits=1, edges=[]), 1) == [0]


def test_non_positive_length_returns_empty_path(line5):
    assert find_long_path(line5, 0) == []
    assert find_long_path(line5, -2) == []


def test_length_above_qubit_count_returns_none(line5):
    assert find_long_path(line5, 6) is None


@pytest.mark.parametrize(
    "kwargs", [{"attempts": 0}, {"attempts": -3}, {"step_budget": 0}, {"step_budget": -1}]
)
def test_rejects_non_positive_search_arguments(line5, kwargs):
    with pytest.raises(ValueError):
        find_long_path(line5, 3, **kwargs)
