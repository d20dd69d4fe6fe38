"""Conformance suite for the pluggable architecture layer.

Every architecture registered in
:data:`repro.core.architecture.ARCHITECTURES` must satisfy the same
contract: exact-count connected lattices within the declared degree
bound, frequency labels that keep nearest neighbours and shared-control
targets distinct, and ideally fabricated devices that pass all seven
Table I criteria at every detuning step of the Fig. 4 sweep.  The suite
is parametrised over the registry, so registering a new topology
automatically subjects it to the full contract.

The golden tests pin the square and ring Fig. 4 variants the same way
``test_golden_regression.py`` pins the registry experiments (shared
``summarize``/``_drift`` helpers, 1e-9 tolerance, regenerated with
``pytest --regenerate-goldens``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from graph_helpers import to_networkx
from test_golden_regression import GOLDEN_DIR, TOLERANCE, _drift, summarize

from repro.analysis.figures.topologies import (
    run_topology_mcm_comparison,
    run_topology_yield_comparison,
)
from repro.analysis.figures.fig4_yield import run_fig4_yield_sweep
from repro.core.architecture import (
    ARCHITECTURES,
    Architecture,
    DEFAULT_TOPOLOGY,
    get_architecture,
)
from repro.core.chiplet import ChipletDesign
from repro.core.collisions import collision_free_mask, find_collisions
from repro.core.frequencies import (
    HeavyHexThreeFrequencyPlan,
    RingThreeFrequencyPlan,
)
from repro.core.mcm import MCMDesign
from repro.core.yield_model import simulate_yield_point, yield_vs_qubits
from repro.engine.registry import Registry
from repro.engine.runner import ExecutionEngine
from repro.topology.base import Lattice
from repro.topology.heavy_hex import heavy_hex_by_qubit_count
from repro.topology.ring import build_ring

TOPOLOGIES = ARCHITECTURES.names()

#: Device sizes every topology must realise exactly.
CONFORMANCE_SIZES = (2, 5, 9, 12, 18, 20, 27, 40, 65)

#: Detuning steps of the Fig. 4 sweep; ideal devices must be clean at all.
SWEEP_STEPS = (0.04, 0.05, 0.06, 0.07)


# ---------------------------------------------------------------------- #
# Registry basics
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_three_topologies_registered(self):
        assert TOPOLOGIES == ["heavy-hex", "square", "ring"]

    def test_default_resolution(self):
        assert get_architecture(None).name == DEFAULT_TOPOLOGY
        assert get_architecture("square").name == "square"

    def test_unknown_topology_raises_with_known_set(self):
        with pytest.raises(KeyError, match="unknown topology"):
            get_architecture("kagome")

    def test_duplicate_registration_rejected(self):
        registry = Registry("topology")
        arch = Architecture(
            name="dup",
            description="",
            lattice_factory=heavy_hex_by_qubit_count,
            plan=HeavyHexThreeFrequencyPlan(),
        )
        registry.register(arch.name, arch)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(arch.name, arch)


# ---------------------------------------------------------------------- #
# Lattice conformance
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestLatticeConformance:
    def test_exact_count_connected_and_bounded_degree(self, topology):
        arch = get_architecture(topology)
        for size in CONFORMANCE_SIZES:
            lattice = arch.lattice(size)
            assert isinstance(lattice, Lattice)
            assert lattice.num_qubits == size
            assert lattice.is_connected()
            assert max(d for _, d in to_networkx(lattice).degree) <= arch.max_degree

    def test_boundaries_exist_and_are_lattice_qubits(self, topology):
        lattice = get_architecture(topology).lattice(20)
        for side in ("left", "right", "top", "bottom"):
            boundary = getattr(lattice, f"boundary_{side}")()
            assert boundary, side
            assert all(0 <= q < lattice.num_qubits for q in boundary)

    def test_labels_within_plan_range(self, topology):
        arch = get_architecture(topology)
        for size in CONFORMANCE_SIZES:
            lattice = arch.lattice(size)
            labels = arch.plan.labels(lattice)
            assert labels.shape == (size,)
            assert labels.min() >= 0
            assert labels.max() < arch.plan.num_frequencies

    def test_neighbours_never_share_a_label(self, topology):
        arch = get_architecture(topology)
        for size in CONFORMANCE_SIZES:
            lattice = arch.lattice(size)
            labels = arch.plan.labels(lattice)
            for u, v in lattice.edges:
                assert labels[u] != labels[v], (topology, size, (u, v))

    def test_shared_control_targets_have_distinct_labels(self, topology):
        arch = get_architecture(topology)
        for size in CONFORMANCE_SIZES:
            lattice = arch.lattice(size)
            allocation = arch.allocate(lattice)
            targets: dict[int, list[int]] = {}
            for control, target in allocation.directed_edges:
                targets.setdefault(int(control), []).append(
                    int(allocation.labels[target])
                )
            for control, target_labels in targets.items():
                assert len(target_labels) == len(set(target_labels)), (
                    topology,
                    size,
                    control,
                )

    def test_ideal_devices_collision_free_at_every_sweep_step(self, topology):
        arch = get_architecture(topology)
        for size in CONFORMANCE_SIZES:
            lattice = arch.lattice(size)
            for step in SWEEP_STEPS:
                allocation = arch.allocate(lattice, spec=arch.spec(step_ghz=step))
                report = find_collisions(allocation, allocation.ideal_frequencies)
                assert report.is_collision_free, (
                    topology,
                    size,
                    step,
                    report.counts_by_type(),
                )
                mask = collision_free_mask(
                    allocation, allocation.ideal_frequencies[np.newaxis, :]
                )
                assert bool(mask[0])


# ---------------------------------------------------------------------- #
# Chiplets and MCMs per topology
# ---------------------------------------------------------------------- #
class TestChipletAndMCM:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_chiplet_builds_and_validates(self, topology):
        design = ChipletDesign.build(18, topology=topology)
        assert design.num_qubits == 18
        if topology == DEFAULT_TOPOLOGY:
            assert design.name == "chiplet-18"
        else:
            assert design.name == f"chiplet-{topology}-18"

    @pytest.mark.parametrize(
        "topology,grid",
        [
            ("heavy-hex", (2, 2)),
            ("square", (2, 2)),
            ("ring", (1, 2)),
            ("ring", (2, 1)),
        ],
    )
    def test_mcm_builds_connected_and_ideally_clean(self, topology, grid):
        chiplet = ChipletDesign.build(18, topology=topology)
        mcm = MCMDesign.build(chiplet, *grid)
        assert mcm.num_qubits == 18 * grid[0] * grid[1]
        assert mcm.num_links >= 1
        assert mcm.coupling_map().is_connected()
        report = find_collisions(mcm.allocation, mcm.allocation.ideal_frequencies)
        assert report.is_collision_free

    def test_closed_ring_plan_is_seam_free_at_multiples_of_three(self):
        ring = build_ring(18, closed=True)
        allocation = RingThreeFrequencyPlan().allocate(ring)
        report = find_collisions(allocation, allocation.ideal_frequencies)
        assert report.is_collision_free


# ---------------------------------------------------------------------- #
# Yield pipeline: determinism, parallelism, cache keys
# ---------------------------------------------------------------------- #
class TestYieldAcrossTopologies:
    def test_default_topology_matches_legacy_heavy_hex_path(self):
        lattice = heavy_hex_by_qubit_count(27)
        legacy = HeavyHexThreeFrequencyPlan().allocate(lattice)
        plugged = get_architecture(None).allocate(lattice)
        assert np.array_equal(legacy.labels, plugged.labels)
        assert np.array_equal(legacy.ideal_frequencies, plugged.ideal_frequencies)
        assert np.array_equal(legacy.directed_edges, plugged.directed_edges)
        assert np.array_equal(legacy.control_triples, plugged.control_triples)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_point_is_seed_deterministic(self, topology):
        kwargs = dict(
            sigma_ghz=0.014, step_ghz=0.06, num_qubits=20, batch_size=150, seed=11
        )
        first = simulate_yield_point(topology=topology, **kwargs)
        second = simulate_yield_point(topology=topology, **kwargs)
        assert first.num_collision_free == second.num_collision_free

    def test_topologies_produce_distinct_streams(self):
        kwargs = dict(
            sigma_ghz=0.014, step_ghz=0.06, num_qubits=20, batch_size=300, seed=11
        )
        yields = {
            topology: simulate_yield_point(topology=topology, **kwargs).estimate
            for topology in TOPOLOGIES
        }
        assert len(set(yields.values())) > 1

    def test_denser_topologies_collapse_earlier(self):
        """The phase-transition ordering: square < heavy-hex <= ring."""
        result = run_topology_yield_comparison(
            sizes=(5, 20, 65, 200), batch_size=200, seed=7
        )
        square = sum(result.yields("square"))
        heavy = sum(result.yields("heavy-hex"))
        ring = sum(result.yields("ring"))
        assert square < heavy <= ring

    def test_square_parallel_matches_sequential_and_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        kwargs = dict(
            sigma_ghz=0.014,
            step_ghz=0.06,
            sizes=(5, 10, 20),
            batch_size=120,
            seed=7,
            topology="square",
        )
        sequential = yield_vs_qubits(**kwargs)
        engine = ExecutionEngine(jobs=2)
        parallel = yield_vs_qubits(executor=engine, **kwargs)
        assert parallel.yields == sequential.yields
        assert engine.stats.cache_hits == 0
        rerun = yield_vs_qubits(executor=ExecutionEngine(jobs=2), **kwargs)
        assert rerun.yields == sequential.yields

    def test_topology_is_part_of_the_cache_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        kwargs = dict(
            sigma_ghz=0.006, step_ghz=0.06, sizes=(20,), batch_size=200, seed=3
        )
        engine = ExecutionEngine(jobs=1)
        heavy = yield_vs_qubits(executor=engine, **kwargs)
        square = yield_vs_qubits(executor=engine, topology="square", **kwargs)
        assert engine.stats.cache_hits == 0
        assert heavy.yields != square.yields


# ---------------------------------------------------------------------- #
# Cross-topology experiments
# ---------------------------------------------------------------------- #
class TestComparisonExperiments:
    def test_topology_mcm_rows_cover_all_topologies(self):
        result = run_topology_mcm_comparison(batch_size=200, seed=5)
        assert [row.topology for row in result.rows] == TOPOLOGIES
        heavy = result.rows[0]
        assert heavy.num_mcms > 0
        assert 0.0 <= heavy.post_assembly_yield <= 1.0
        assert "topology" in result.format_table()

    def test_single_topology_restriction(self):
        result = run_topology_mcm_comparison(
            topologies=("ring",), batch_size=150, seed=5
        )
        assert [row.topology for row in result.rows] == ["ring"]

    def test_filtered_runs_reproduce_full_run_rows(self):
        """Child seeds key on registry position, not the filtered list."""
        full = run_topology_yield_comparison(
            seed=7, sizes=(5, 10), batch_size=150
        )
        only = run_topology_yield_comparison(
            seed=7, sizes=(5, 10), batch_size=150, topologies=("square",)
        )
        assert only.yields("square") == full.yields("square")

        m_full = run_topology_mcm_comparison(batch_size=150, seed=5)
        m_only = run_topology_mcm_comparison(
            batch_size=150, seed=5, topologies=("ring",)
        )
        ring_full = next(r for r in m_full.rows if r.topology == "ring")
        assert m_only.rows[0] == ring_full

    def test_comparison_parallel_matches_sequential(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        kwargs = dict(seed=7, sizes=(5, 10, 20), batch_size=120)
        sequential = run_topology_yield_comparison(**kwargs)
        parallel = run_topology_yield_comparison(
            engine=ExecutionEngine(jobs=2), **kwargs
        )
        for topology in TOPOLOGIES:
            assert parallel.yields(topology) == sequential.yields(topology)


# ---------------------------------------------------------------------- #
# Golden snapshots: the square and ring Fig. 4 variants
# ---------------------------------------------------------------------- #
VARIANT_PARAMS = dict(
    batch_size=120,
    seed=7,
    sizes=(5, 10, 20, 40, 65, 100, 200),
)


@pytest.mark.parametrize("topology", ["square", "ring"])
def test_fig4_variant_matches_golden(topology, request):
    regenerate = request.config.getoption("--regenerate-goldens")
    golden_path = GOLDEN_DIR / f"fig4_{topology}.json"
    result = run_fig4_yield_sweep(topology=topology, **VARIANT_PARAMS)
    actual = {
        "experiment": f"fig4-{topology}",
        "topology": topology,
        "seed": VARIANT_PARAMS["seed"],
        "batch_size": VARIANT_PARAMS["batch_size"],
        "summary": summarize(result),
    }

    if regenerate:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return

    assert golden_path.exists(), (
        f"no golden for the {topology} fig4 variant; generate it with "
        "`python -m pytest tests/test_architectures.py --regenerate-goldens`"
    )
    golden = json.loads(golden_path.read_text())
    problems = _drift(golden, actual)
    assert not problems, (
        f"fig4-{topology}: {len(problems)} value(s) drifted beyond {TOLERANCE}:\n"
        + "\n".join(problems[:25])
    )
