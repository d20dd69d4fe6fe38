"""The column-backed compile passes against the historical Gate-per-gate ones.

Every benchmark is compiled onto table II's 2x2 MCMs of 10-, 20- and
40-qubit chiplets and onto a Fig. 10 MCM device, with both routers, by
the shipped pipeline and by ``compile_reference.reference_transpile``.
The edge trace, SWAP count, gate metrics, materialised gate list and
fidelity product must be identical.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.compiler.pipeline import transpile
from repro.core.chiplet import ChipletDesign
from repro.core.mcm import MCMDesign
from repro.device.device import Device
from repro.simulation.esp import fidelity_product

from compile_reference import reference_transpile

TARGETS = ("table2-10", "table2-20", "table2-40", "fig10-20")


@functools.lru_cache(maxsize=None)
def table2_device(chiplet_size: int) -> Device:
    """Table II's 2x2 MCM with a fixed synthetic error map.

    Table II compiles onto the bare coupling (basic routing); the error
    map gives the noise-aware router real detours and the fidelity
    product something to score.
    """
    coupling = MCMDesign.build(ChipletDesign.build(chiplet_size), 2, 2).coupling_map()
    rng = np.random.default_rng(chiplet_size)
    errors = rng.uniform(0.002, 0.05, size=coupling.num_edges)
    return Device(
        name=f"table2-{chiplet_size}",
        coupling=coupling,
        frequencies_ghz=np.full(coupling.num_qubits, 5.0),
        labels=np.zeros(coupling.num_qubits, dtype=int),
        edge_errors=dict(zip(coupling.edges, errors.tolist())),
    )


@pytest.fixture
def target_device(request, small_study) -> Device:
    kind, size = request.param.split("-")
    if kind == "fig10":
        return small_study.mcm_result(int(size), (2, 2)).best_device
    return table2_device(int(size))


@pytest.mark.parametrize("routing", ["basic", "noise-aware"])
@pytest.mark.parametrize("target_device", TARGETS, indirect=True)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_flat_passes_match_gate_reference(name, target_device, routing):
    width = max(2, round(0.8 * target_device.num_qubits))
    circuit = build_benchmark(name, width, seed=5)
    # Basic routing compiles onto the bare coupling, as table II does.
    target = target_device if routing == "noise-aware" else target_device.coupling
    shipped = transpile(circuit, target, routing=routing)
    reference = reference_transpile(circuit, target, routing=routing)

    assert shipped.two_qubit_edges == reference.two_qubit_edges
    assert shipped.num_swaps == reference.routed.num_swaps
    assert shipped.metrics == reference.metrics
    assert shipped.circuit.gates == reference.circuit.gates
    assert shipped.initial_layout.mapping() == reference.routed.initial_layout.mapping()
    assert fidelity_product(
        shipped.circuit.edge_array(), target_device
    ) == fidelity_product(reference.two_qubit_edges, target_device)
