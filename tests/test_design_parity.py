"""Design construction on integer arrays against the historical helpers.

Lattices are trimmed and checked for connectivity on adjacency rows,
allocations are oriented and tripled with NumPy, plan labels come from
site arrays, and both design builders share one ideal-plan check that
runs the mask kernel.  Every output must equal the per-site, per-edge
and networkx versions kept verbatim in ``design_reference.py``: the same
lattices, the same allocation arrays (values, dtype and memory order),
the same links and coupling edges, and the same error text when an
ideal plan collides.
"""

from __future__ import annotations

import dataclasses
import json

import networkx as nx
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import design_reference as reference  # noqa: E402
from repro.__main__ import main  # noqa: E402
from repro.analysis.registry import EXPERIMENTS  # noqa: E402
from repro.core.architecture import (  # noqa: E402
    ARCHITECTURES,
    clear_architecture_caches,
    get_architecture,
)
from repro.core.chiplet import PAPER_CHIPLET_SIZES, ChipletDesign  # noqa: E402
from repro.core.collisions import check_ideal_plan  # noqa: E402
from repro.core.frequencies import (  # noqa: E402
    FrequencySpec,
    _control_triples,
    _orient_edges,
    allocation_from_labels,
)
from repro.core.mcm import MCMDesign, _LinkBuilder, mcm_dimensions_for  # noqa: E402
from repro.engine.runner import ExecutionEngine  # noqa: E402
from repro.topology.base import QubitSite, rows_connected  # noqa: E402
from repro.topology.coupling import CouplingMap  # noqa: E402
from repro.topology.heavy_hex import (  # noqa: E402
    HeavyHexLattice,
    _trim_to_count,
    build_heavy_hex,
    heavy_hex_by_qubit_count,
)
from repro.topology.ring import ring_by_qubit_count  # noqa: E402
from repro.topology.square import square_by_qubit_count  # noqa: E402

REFERENCE_LABELS = {
    "heavy-hex": reference.reference_heavy_hex_labels,
    "square": reference.reference_square_labels,
    "ring": reference.reference_ring_labels,
}

ALLOCATION_ARRAYS = (
    "labels",
    "ideal_frequencies",
    "anharmonicities",
    "directed_edges",
    "control_triples",
)


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    assert actual.flags.f_contiguous == expected.flags.f_contiguous
    np.testing.assert_array_equal(actual, expected)


def assert_same_allocation(actual, expected) -> None:
    assert actual.spec == expected.spec
    for name in ALLOCATION_ARRAYS:
        assert_same_array(getattr(actual, name), getattr(expected, name))


def assert_same_lattice(actual, expected) -> None:
    assert type(actual) is type(expected)
    assert (actual.rows, actual.cols, actual.name) == (
        expected.rows,
        expected.cols,
        expected.name,
    )
    assert actual.sites == expected.sites
    assert actual.edges == expected.edges


# ---------------------------------------------------------------------- #
# Lattices
# ---------------------------------------------------------------------- #
def test_heavy_hex_lattices_match_the_networkx_trim():
    for n in range(2, 700):
        assert_same_lattice(
            heavy_hex_by_qubit_count(n), reference.reference_heavy_hex_by_qubit_count(n)
        )


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 5), (3, 7), (4, 10), (7, 21)])
def test_build_heavy_hex_matches_the_dict_build(rows, cols):
    assert_same_lattice(
        build_heavy_hex(rows, cols), reference.reference_build_heavy_hex(rows, cols)
    )


@pytest.mark.parametrize("rows,cols", [(2, 6), (3, 9), (5, 13)])
def test_trim_matches_at_every_target(rows, cols):
    lattice = build_heavy_hex(rows, cols)
    for target in range(1, lattice.num_qubits + 1):
        trimmed = _trim_to_count(lattice, target)
        expected = reference.reference_trim_to_count(lattice, target)
        assert_same_lattice(trimmed, expected)


@pytest.mark.parametrize("factory", [square_by_qubit_count, ring_by_qubit_count])
def test_square_and_ring_connectivity(factory):
    for n in range(2, 200):
        lattice = factory(n)
        assert lattice.is_connected() is reference.reference_lattice_is_connected(lattice)
        assert lattice.is_connected()


def test_fingerprint_follows_content():
    lattice = build_heavy_hex(2, 6)
    fingerprint = lattice.fingerprint()
    assert build_heavy_hex(2, 6).fingerprint() == fingerprint
    # A copy with other content digests its own content, not the cached one.
    trimmed = dataclasses.replace(lattice, edges=lattice.edges[:-1])
    assert trimmed.fingerprint() != fingerprint
    assert lattice.relabelled("other").fingerprint() != fingerprint


# ---------------------------------------------------------------------- #
# Connectivity
# ---------------------------------------------------------------------- #
@st.composite
def graphs(draw, connected: bool | None = None):
    n = draw(st.integers(1, 25))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=3 * n,
        )
    )
    if connected:
        # A random spanning tree makes the graph connected.
        order = draw(st.permutations(range(n)))
        parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
        edges += [(order[p], order[i + 1]) for i, p in enumerate(parents)]
    elif connected is False and n >= 2:
        # Nothing crosses the cut between the two halves.
        cut = draw(st.integers(1, n - 1))
        edges = [(u, v) for u, v in edges if (u < cut) == (v < cut)]
    return n, edges


@given(graphs())
def test_coupling_connectivity_matches_networkx(graph):
    n, edges = graph
    coupling = CouplingMap(num_qubits=n, edges=edges)
    assert coupling.is_connected() is reference.reference_coupling_is_connected(coupling)


@given(graphs(connected=True))
def test_connected_graphs_read_connected(graph):
    n, edges = graph
    assert CouplingMap(num_qubits=n, edges=edges).is_connected()


@given(graphs(connected=False))
def test_cut_graphs_read_disconnected(graph):
    n, edges = graph
    coupling = CouplingMap(num_qubits=n, edges=edges)
    assert coupling.is_connected() is (n == 1)
    assert reference.reference_coupling_is_connected(coupling) is (n == 1)


@given(graphs())
def test_lattice_connectivity_matches_networkx(graph):
    n, edges = graph
    lattice = HeavyHexLattice(
        rows=1,
        cols=n,
        sites=[QubitSite(i, "dense", 0, i) for i in range(n)],
        edges=sorted({(min(e), max(e)) for e in edges}),
    )
    assert lattice.is_connected() is reference.reference_lattice_is_connected(lattice)


def test_null_graph_connectivity_is_undefined():
    with pytest.raises(ValueError, match="null graph"):
        rows_connected([])
    with pytest.raises(nx.NetworkXPointlessConcept):
        reference.reference_coupling_is_connected(CouplingMap(num_qubits=0, edges=[]))
    with pytest.raises(ValueError, match="null graph"):
        CouplingMap(num_qubits=0, edges=[]).is_connected()


# ---------------------------------------------------------------------- #
# Coupling-map normalisation
# ---------------------------------------------------------------------- #
@given(
    n=st.integers(0, 12),
    edges=st.lists(st.tuples(st.integers(-2, 13), st.integers(-2, 13)), max_size=30),
    links=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3),
)
def test_coupling_normalisation_matches_the_edge_loop(n, edges, links):
    try:
        expected = reference.reference_coupling_edges(n, edges, frozenset(links))
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            CouplingMap(num_qubits=n, edges=edges, link_edges=frozenset(links))
        assert str(raised.value) == str(error)
        return
    coupling = CouplingMap(num_qubits=n, edges=edges, link_edges=frozenset(links))
    assert (coupling.edges, coupling.link_edges) == expected
    assert all(type(q) is int for edge in coupling.edges for q in edge)


def test_coupling_accepts_an_edge_array():
    edges = np.array([[3, 1], [0, 1], [1, 3]], dtype=np.int64)
    coupling = CouplingMap(num_qubits=4, edges=edges)
    assert coupling.edges == [(0, 1), (1, 3)]
    assert all(type(q) is int for edge in coupling.edges for q in edge)


def test_coupling_rejects_non_pairs():
    with pytest.raises(ValueError, match="pairs"):
        CouplingMap(num_qubits=6, edges=[(0, 1, 2), (3, 4, 5)])


# ---------------------------------------------------------------------- #
# Allocations
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("topology", ["heavy-hex", "square", "ring"])
@pytest.mark.parametrize("step", [None, 0.0, 0.02, 0.06, 0.11])
def test_allocations_match_for_every_topology(topology, step):
    arch = get_architecture(topology)
    spec = arch.spec(step_ghz=step)
    for n in list(range(2, 60)) + [90, 127, 200, 250, 433]:
        lattice = arch.lattice(n)
        labels = REFERENCE_LABELS[topology](lattice)
        assert_same_array(arch.plan.labels(lattice), labels)
        assert_same_allocation(
            arch.plan.allocate(lattice, spec),
            reference.reference_allocation_from_labels(labels, lattice.edges, spec),
        )


@pytest.mark.parametrize("phase", [1, 2, 3, -1])
def test_shifted_plans_match(phase):
    for name in ARCHITECTURES.names():
        plan = dataclasses.replace(get_architecture(name).plan, phase=phase)
        lattice = get_architecture(name).lattice(40)
        assert_same_array(
            plan.labels(lattice), REFERENCE_LABELS[name](lattice, phase=phase)
        )


@st.composite
def labelled_edges(draw):
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, 4))
    labels = np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    # A zero step gives every edge an equal-ideal tie; repeated labels
    # give same-label links.
    step = draw(st.sampled_from([0.0, 0.06, -0.04]))
    return labels, edges, FrequencySpec(step_ghz=step, num_frequencies=k)


@given(labelled_edges())
def test_orientation_matches_the_tuple_rule(case):
    labels, edges, spec = case
    ideal = np.asarray(spec.frequencies)[labels]
    assert_same_array(
        _orient_edges(edges, labels, ideal),
        reference.reference_orient_edges(edges, labels, ideal),
    )


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40).map(
        lambda pairs: np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    )
)
def test_triples_match_the_dict_of_targets(directed):
    assert_same_array(
        _control_triples(directed), reference.reference_control_triples(directed)
    )


@given(labelled_edges())
def test_allocation_from_labels_matches(case):
    labels, edges, spec = case
    assert_same_allocation(
        allocation_from_labels(labels, edges, spec),
        reference.reference_allocation_from_labels(labels, edges, spec),
    )


def test_empty_allocation_matches():
    spec = FrequencySpec()
    labels = np.zeros(0, dtype=np.int64)
    assert_same_allocation(
        allocation_from_labels(labels, [], spec),
        reference.reference_allocation_from_labels(labels, [], spec),
    )


# ---------------------------------------------------------------------- #
# Chiplets and MCMs
# ---------------------------------------------------------------------- #
def test_every_paper_grid_matches():
    for size in PAPER_CHIPLET_SIZES:
        chiplet = ChipletDesign.build(size)
        assert chiplet.control_target_labels() == (
            reference.reference_control_target_labels(chiplet.allocation)
        )
        for grid in mcm_dimensions_for(size):
            design = MCMDesign.build(chiplet, *grid)
            builder = _LinkBuilder(chiplet, *grid)
            builder.base_target_labels = reference.reference_control_target_labels(
                chiplet.allocation
            )
            assert design.links == builder.build_links()
            expected = reference.reference_allocation_from_labels(
                np.tile(chiplet.labels, design.num_chips),
                design.edges(),
                chiplet.allocation.spec,
            )
            assert_same_allocation(design.allocation, expected)
            edges, links = reference.reference_coupling_edges(
                design.num_qubits,
                [(int(min(c, t)), int(max(c, t))) for c, t in expected.directed_edges],
                design.link_edges(),
            )
            coupling = design.coupling_map()
            assert coupling.edges == edges
            assert coupling.link_edges == links


@given(
    labelled_edges(),
    st.floats(-0.4, -0.1),
    st.floats(0.0, 0.4),
)
def test_ideal_check_matches_the_report(case, anharmonicity, step):
    labels, edges, spec = case
    spec = dataclasses.replace(spec, step_ghz=step, anharmonicity_ghz=anharmonicity)
    allocation = allocation_from_labels(labels, edges, spec)
    try:
        reference.reference_check_ideal_plan(allocation, "design x")
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            check_ideal_plan(allocation, "design x")
        assert str(raised.value) == str(error)
    else:
        check_ideal_plan(allocation, "design x")


def test_collided_chiplet_raises_the_report_text():
    spec = FrequencySpec(step_ghz=0.0)
    lattice = get_architecture(None).lattice(20, name="chiplet-20")
    allocation = get_architecture(None).allocate(lattice, spec)
    with pytest.raises(ValueError) as expected:
        reference.reference_check_ideal_plan(allocation, "chiplet design chiplet-20")
    with pytest.raises(ValueError) as raised:
        ChipletDesign.build(20, spec=spec)
    assert str(raised.value) == str(expected.value)
    assert "{1: " in str(raised.value)


def test_collided_mcm_raises_the_report_text():
    chiplet = ChipletDesign.build(20)
    collided = dataclasses.replace(
        chiplet,
        allocation=allocation_from_labels(
            chiplet.labels, chiplet.edges(), FrequencySpec(step_ghz=0.0)
        ),
    )
    with pytest.raises(ValueError) as raised:
        MCMDesign.build(collided, 1, 2)
    message = str(raised.value)
    assert message.startswith("MCM design mcm-1x2-chiplet-20 has ideal-frequency")
    links = _LinkBuilder(collided, 1, 2).build_links()
    allocation = reference.reference_allocation_from_labels(
        np.tile(collided.labels, 2),
        chiplet.edges()
        + [(u + 20, v + 20) for u, v in chiplet.edges()]
        + [link.edge for link in links],
        collided.allocation.spec,
    )
    with pytest.raises(ValueError) as expected:
        reference.reference_check_ideal_plan(allocation, "MCM design mcm-1x2-chiplet-20")
    assert message == str(expected.value)


# ---------------------------------------------------------------------- #
# The yield path without networkx
# ---------------------------------------------------------------------- #
def test_yield_path_calls_no_networkx(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("networkx called on the yield path")

    monkeypatch.setattr(nx, "articulation_points", refuse)
    monkeypatch.setattr(nx, "is_connected", refuse)
    clear_architecture_caches()
    try:
        for name in ("fig4", "fig8"):
            engine = ExecutionEngine(jobs=1, use_cache=False)
            EXPERIMENTS.get(name).runner(engine, batch_size=10)
    finally:
        clear_architecture_caches()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fig8_dump_json_books_design(tmp_path, capsys, jobs):
    path = tmp_path / "fig8.json"
    args = [
        "run", "fig8", "--batch", "20", "--jobs", jobs, "--no-cache",
        "--quiet", "--dump-json", str(path),
    ]
    clear_architecture_caches()
    assert main(args) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["engine"]["seconds_by_phase"]["design"] > 0
