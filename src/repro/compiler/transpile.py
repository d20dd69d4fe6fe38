"""End-to-end transpilation: a thin wrapper over the default pass pipeline.

:func:`transpile` is the single entry point the evaluation harness uses to
map a logical benchmark onto a :class:`~repro.device.device.Device` (or a
bare coupling map).  The actual work happens in
:mod:`repro.compiler.pipeline`, which composes the decompose -> layout ->
route -> swap-expand -> metrics stages as individual passes with
name-keyed strategy registries; this module keeps the historical
signature (plus a ``routing`` strategy selector) and re-exports
:class:`TranspiledCircuit` for existing importers.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.pipeline import (
    DEFAULT_LAYOUT,
    DEFAULT_ROUTING,
    TranspiledCircuit,
    default_pipeline,
)
from repro.device.device import Device
from repro.engine.phases import phase
from repro.topology.coupling import CouplingMap

__all__ = ["TranspiledCircuit", "transpile"]


def transpile(
    circuit: QuantumCircuit,
    target: Device | CouplingMap,
    layout_method: str = DEFAULT_LAYOUT,
    routing: str = DEFAULT_ROUTING,
) -> TranspiledCircuit:
    """Map a logical circuit onto a device.

    Parameters
    ----------
    circuit:
        Logical circuit (may contain ``ccx``, ``swap``, ``rzz``, ``cz``).
    target:
        Device or coupling map to compile onto.
    layout_method:
        Initial-layout method
        (see :data:`repro.compiler.layout.LAYOUT_METHODS`).
    routing:
        Registered routing strategy
        (see :data:`repro.compiler.pipeline.ROUTING_STRATEGIES`);
        ``"basic"`` reproduces the seed-state router bit-identically,
        ``"noise-aware"`` detours SWAP traffic around high-error
        couplings using the device's error map.
    """
    with phase("compile"):
        return default_pipeline(layout_method=layout_method, routing=routing).run(
            circuit, target
        )
