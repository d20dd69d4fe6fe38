"""The layout pass's placement memo and its networkx-free dense region.

The memo contract (``repro.compiler.layout`` module docstring): a
layout's physical placement is memoised on the coupling's content, the
width and the branch; a warm lookup gives the same layout as a cold
search, a failed path search is not repeated, and
``clear_routing_cache()`` empties the memo.  The dense region and its
BFS order are built on ``CouplingMap.neighbors`` rows and must equal the
networkx versions kept in ``layout_reference.py``.  The LRU bound and
eviction order are the shared helper's, tested in
``tests/test_lru_caches.py``.
"""

from __future__ import annotations

import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from graph_helpers import to_networkx  # noqa: E402
from layout_reference import (  # noqa: E402
    reference_densest_connected_subgraph,
    reference_find_long_path,
    reference_region_order,
)
from repro.__main__ import main  # noqa: E402
from repro.circuits.benchmarks import build_benchmark  # noqa: E402
from repro.circuits.circuit import QuantumCircuit  # noqa: E402
from repro.compiler import layout as layout_module  # noqa: E402
from repro.compiler import pipeline  # noqa: E402
from repro.compiler.layout import (  # noqa: E402
    _interaction_order,
    _region_order,
    choose_layout,
    densest_connected_subgraph,
)
from repro.compiler.routing import clear_routing_cache  # noqa: E402
from repro.topology.coupling import CouplingMap  # noqa: E402
from repro.topology.heavy_hex import heavy_hex_by_qubit_count  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_routing_cache()
    yield
    clear_routing_cache()


def memo_stats() -> dict:
    return layout_module._CACHE.stats()


def ghz(n: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


def heavy_hex(n: int) -> CouplingMap:
    return CouplingMap.from_lattice(heavy_hex_by_qubit_count(n))


def star(leaves: int) -> CouplingMap:
    """No simple path on it visits more than three qubits."""
    return CouplingMap(num_qubits=leaves + 1, edges=[(0, q) for q in range(1, leaves + 1)])


def reference_layout(circuit, coupling, branch) -> dict[int, int]:
    """``choose_layout``'s mapping, rebuilt from the reference searches."""
    order = _interaction_order(circuit)
    if branch == "line":
        path = reference_find_long_path(coupling, circuit.num_qubits)
        if path is not None:
            return dict(zip(order, path))
    graph = to_networkx(coupling)
    region = reference_densest_connected_subgraph(graph, circuit.num_qubits)
    return dict(zip(order, reference_region_order(graph, region)))


# -- the row-based region and order equal the networkx ones ----------------- #


@st.composite
def region_cases(draw):
    """A random graph (connected or not) and a size 0..n."""
    n = draw(st.integers(1, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))) if pairs else set()
    if draw(st.booleans()):
        # A random spanning tree makes the graph connected.
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    coupling = CouplingMap(num_qubits=n, edges=sorted(edges))
    return coupling, draw(st.integers(0, n))


def assert_region_parity(coupling, size):
    graph = to_networkx(coupling)
    region = densest_connected_subgraph(coupling, size)
    assert region == reference_densest_connected_subgraph(graph, size)
    if region:
        assert _region_order(coupling, region) == reference_region_order(graph, region)


@given(region_cases())
def test_region_and_order_match_networkx_reference(case):
    assert_region_parity(*case)


def test_region_and_order_match_on_seeded_random_graphs():
    rng = random.Random(2022)
    for _ in range(300):
        n = rng.randint(1, 60)
        density = rng.random() * 0.2
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
        ]
        coupling = CouplingMap(num_qubits=n, edges=edges)
        assert_region_parity(coupling, rng.randint(0, n))


@pytest.mark.parametrize("size", [1, 20, 52, 65])
def test_region_and_order_match_on_heavy_hex(size):
    assert_region_parity(heavy_hex(65), size)


def test_region_rejects_oversized_request():
    with pytest.raises(ValueError):
        densest_connected_subgraph(star(3), 5)


# -- the memo ---------------------------------------------------------------- #


#: Case -> (circuit, coupling, the branch ``choose_layout`` takes).
CASES = {
    "line": (lambda: ghz(20), lambda: heavy_hex(27), "line"),
    "line-failed": (lambda: ghz(5), lambda: star(6), "line"),
    "dense": (lambda: build_benchmark("qaoa", 20, seed=1), lambda: heavy_hex(27), "dense"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_layout_equals_cold_layout_and_reference(case):
    make_circuit, make_coupling, branch = CASES[case]
    circuit, coupling = make_circuit(), make_coupling()
    cold = choose_layout(circuit, coupling).mapping()
    assert memo_stats()["misses"] == 1
    # A fresh but equal coupling map reads the same entry.
    warm = choose_layout(circuit, make_coupling()).mapping()
    assert memo_stats()["hits"] == 1
    assert warm == cold
    assert cold == reference_layout(circuit, coupling, branch)


def test_failed_search_is_memoised(monkeypatch):
    searches = []
    original = layout_module.find_long_path

    def counted(coupling, length, *args, **kwargs):
        result = original(coupling, length, *args, **kwargs)
        searches.append(result)
        return result

    monkeypatch.setattr(layout_module, "find_long_path", counted)
    coupling = star(6)
    first = choose_layout(ghz(5), coupling).mapping()
    second = choose_layout(ghz(5), coupling).mapping()
    assert searches == [None]
    assert first == second == reference_layout(ghz(5), coupling, "dense")
    stats = memo_stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)


def test_key_separates_width_and_branch():
    coupling = heavy_hex(27)
    choose_layout(build_benchmark("qaoa", 8, seed=1), coupling)
    choose_layout(build_benchmark("qaoa", 9, seed=1), coupling)
    choose_layout(ghz(8), coupling)
    assert memo_stats()["entries"] == 3
    # Another circuit of a seen width and branch reads the same entry.
    choose_layout(build_benchmark("qaoa", 8, seed=2), coupling)
    stats = memo_stats()
    assert (stats["entries"], stats["hits"]) == (3, 1)


def test_mutating_a_layout_cannot_corrupt_the_memo():
    coupling = heavy_hex(27)
    circuit = build_benchmark("qaoa", 20, seed=1)
    layout = choose_layout(circuit, coupling)
    expected = layout.mapping()
    layout.swap_physical(layout.physical(0), layout.physical(1))
    layout.mapping()[0] = -1
    assert layout.mapping() != expected
    assert choose_layout(circuit, coupling).mapping() == expected
    assert memo_stats()["hits"] == 1


def test_clear_routing_cache_empties_the_memo():
    coupling = heavy_hex(27)
    choose_layout(ghz(10), coupling)
    assert memo_stats()["entries"] == 1
    clear_routing_cache()
    stats = memo_stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
    choose_layout(ghz(10), coupling)
    assert memo_stats()["misses"] == 1


# -- observability ----------------------------------------------------------- #


def test_table2_memo_traffic_counts_every_layout_call(tmp_path, capsys, monkeypatch):
    """``hits + misses`` in ``--dump-json`` is one per ``choose_layout`` call.

    Each pool worker has its own memo, so the hit/miss split may differ
    between ``--jobs 1`` and ``--jobs 2``; the lookups may not.
    """
    calls = []
    original = pipeline.choose_layout

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    lookups = {}
    for jobs in ("1", "2"):
        if jobs == "1":
            monkeypatch.setattr(pipeline, "choose_layout", counted)
        else:
            monkeypatch.setattr(pipeline, "choose_layout", original)
        clear_routing_cache()
        path = tmp_path / f"table2-{jobs}.json"
        args = ["run", "table2", "--jobs", jobs, "--no-cache", "--quiet",
                "--dump-json", str(path)]
        assert main(args) == 0
        block = json.loads(path.read_text())["engine"]["layout_cache"]
        assert set(block) == {"hits", "misses", "evictions"}
        lookups[jobs] = block["hits"] + block["misses"]
    capsys.readouterr()
    assert len(calls) > 0
    assert lookups == {"1": len(calls), "2": len(calls)}
