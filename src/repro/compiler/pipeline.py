"""The compiler: one fixed pass sequence over a shared context.

:func:`transpile` maps a logical benchmark onto a
:class:`~repro.device.device.Device` (or a bare coupling map) through
the flow Table II and Fig. 10 compile with: decompose -> layout ->
route -> SWAP expansion -> gate metrics.

* :class:`CompileContext` — the mutable state a circuit accumulates on
  its way to hardware: the working circuit, the target coupling map and
  device, the chosen layout, the routed intermediate and the final gate
  metrics.
* :class:`DecomposePass`, :class:`LayoutPass`, :class:`RoutePass`,
  :class:`SwapExpandPass`, :class:`MetricsPass` — the five stages, each
  a ``run(context)`` that advances the context in place.
  :func:`transpile` runs them in that order, each under its own
  ``compile.<name>`` phase inside ``compile``.
* :data:`ROUTING_STRATEGIES` — the routing-strategy
  :class:`~repro.engine.registry.Registry`, so routing choices travel
  the CLI / service / cache-key plumbing as plain strings.  The layout
  is not a choice: :func:`~repro.compiler.layout.choose_layout` embeds
  chain circuits along a path and places the rest on a dense region.

Every pass works on the gate columns of
:class:`~repro.circuits.circuit.QuantumCircuit` (names, ``q0``, ``q1``,
params); no pass builds a :class:`~repro.circuits.gates.Gate`.  The
two-qubit edge trace the fidelity product consumes is read off the final
physical circuit (:meth:`~repro.circuits.circuit.QuantumCircuit.edge_array`).

Adding a routing strategy is one registration of a callable
``(circuit, coupling, layout, edge_errors=None) -> RoutedCircuit`` whose
docstring's first line ``python -m repro list`` shows::

    ROUTING_STRATEGIES.register("lookahead", my_lookahead_router)

after which ``transpile(..., routing="lookahead")``,
``python -m repro run fig10 --routing lookahead`` and the appsweep
experiment all pick it up without further changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import Layout, choose_layout
from repro.compiler.metrics import GateMetrics, gate_metrics
from repro.compiler.routing import (
    RoutedCircuit,
    route_circuit,
    route_circuit_noise_aware,
)
from repro.engine.phases import phase
from repro.engine.registry import Registry
from repro.topology.coupling import CouplingMap

__all__ = [
    "CompileContext",
    "DecomposePass",
    "LayoutPass",
    "MetricsPass",
    "ROUTING_STRATEGIES",
    "RoutePass",
    "SwapExpandPass",
    "TranspiledCircuit",
    "transpile",
]


# ---------------------------------------------------------------------- #
# Routing strategies
# ---------------------------------------------------------------------- #
def _basic_routing(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    edge_errors: dict[tuple[int, int], float] | None = None,
) -> RoutedCircuit:
    """Greedy hop-shortest SWAP chains (the paper's router)."""
    return route_circuit(circuit, coupling, layout)


#: SWAP-insertion routing strategies.
ROUTING_STRATEGIES: Registry = Registry("routing strategy")
ROUTING_STRATEGIES.register("basic", _basic_routing)
ROUTING_STRATEGIES.register("noise-aware", route_circuit_noise_aware)


# ---------------------------------------------------------------------- #
# Context and passes
# ---------------------------------------------------------------------- #
@dataclass
class CompileContext:
    """Mutable state threaded through the passes.

    Attributes
    ----------
    circuit:
        The working circuit as gate columns; each pass replaces it with
        its output (logical at first, physical after routing, in the
        {1-qubit, CX} basis after SWAP expansion).
    coupling:
        Target connectivity.
    device:
        The target device itself when one was supplied (``None`` for a
        bare coupling map); the routing pass hands it to strategies so
        the noise-aware router reads its cached edge-error arrays.
    layout:
        Virtual -> physical placement chosen by the layout pass.
    routed:
        The routing pass's full result (the physical circuit with explicit
        SWAPs, final layout, SWAP count).
    metrics:
        Table II-style gate metrics of the final physical circuit.
    """

    circuit: QuantumCircuit
    coupling: CouplingMap
    device: Any = None
    layout: Layout | None = None
    routed: RoutedCircuit | None = None
    metrics: GateMetrics | None = None

    @classmethod
    def for_target(cls, circuit: QuantumCircuit, target) -> "CompileContext":
        """Build a context for a :class:`Device` or bare coupling map."""
        from repro.device.device import Device

        if isinstance(target, Device):
            return cls(circuit=circuit, coupling=target.coupling, device=target)
        return cls(circuit=circuit, coupling=target)


class DecomposePass:
    """Rewrite the working circuit into the {1-qubit, CX} basis."""

    name = "decompose"

    def run(self, context: CompileContext) -> None:
        context.circuit = decompose_to_cx_basis(context.circuit)


class LayoutPass:
    """Choose the initial layout with :func:`choose_layout`."""

    name = "layout"

    def run(self, context: CompileContext) -> None:
        context.layout = choose_layout(context.circuit, context.coupling)


class RoutePass:
    """Insert SWAPs with a registered routing strategy.

    An unknown strategy name raises ``KeyError`` (with a did-you-mean
    suggestion) at construction, before any compilation work.
    """

    name = "route"

    def __init__(self, strategy: str = "basic"):
        self.route = ROUTING_STRATEGIES.get(strategy)

    def run(self, context: CompileContext) -> None:
        routed = self.route(
            context.circuit,
            context.coupling,
            context.layout,
            edge_errors=context.device,
        )
        context.routed = routed
        context.circuit = routed.circuit


class SwapExpandPass:
    """Expand each SWAP into 3 CX on its coupling (an index expansion).

    ``swap(a, b)`` becomes ``cx(a, b), cx(b, a), cx(a, b)``, so its edge
    appears three times in the physical circuit's edge trace.
    """

    name = "swap-expand"

    def run(self, context: CompileContext) -> None:
        # A routed circuit is in the CX basis plus SWAPs, so the basis
        # rewrite expands exactly its SWAPs.
        context.circuit = decompose_to_cx_basis(context.circuit)


class MetricsPass:
    """Compute Table II-style gate metrics of the physical circuit."""

    name = "metrics"

    def run(self, context: CompileContext) -> None:
        context.metrics = gate_metrics(context.circuit)


# ---------------------------------------------------------------------- #
# Transpilation
# ---------------------------------------------------------------------- #
@dataclass
class TranspiledCircuit:
    """A benchmark mapped onto physical hardware.

    Attributes
    ----------
    circuit:
        Physical circuit in the {1-qubit, CX} basis, as gate columns;
        ``circuit.edge_array()`` is its two-qubit edge trace, the
        fidelity-product input.
    initial_layout:
        Virtual -> physical placement chosen by the layout pass.
    num_swaps:
        SWAPs inserted by routing (each contributes 3 CX to the counts).
    metrics:
        Table II-style gate metrics of the physical circuit.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    num_swaps: int
    metrics: GateMetrics

    @property
    def two_qubit_edges(self) -> list[tuple[int, int]]:
        """Physical coupling used by each two-qubit gate, in program order,
        with SWAP gates expanded to three entries (built on demand)."""
        return list(map(tuple, self.circuit.edge_array().tolist()))


def transpile(
    circuit: QuantumCircuit,
    target,
    routing: str = "basic",
) -> TranspiledCircuit:
    """Map a logical circuit onto a device.

    Runs decompose, layout, route, SWAP expansion and metrics in that
    order, each booking its wall-clock to its own ``compile.<name>``
    phase (``compile.decompose``, ``compile.layout``, ...) inside
    ``compile``.

    Parameters
    ----------
    circuit:
        Logical circuit (may contain ``ccx``, ``swap``, ``rzz``, ``cz``).
    target:
        :class:`~repro.device.device.Device` or bare :class:`CouplingMap`
        to compile onto.
    routing:
        Registered routing strategy (see :data:`ROUTING_STRATEGIES`);
        ``"basic"`` is the paper's hop-shortest router, ``"noise-aware"``
        detours SWAP traffic around high-error couplings using the
        device's error map.  Unknown names raise ``KeyError`` before any
        compilation work.
    """
    with phase("compile"):
        passes = (
            DecomposePass(),
            LayoutPass(),
            RoutePass(routing),
            SwapExpandPass(),
            MetricsPass(),
        )
        context = CompileContext.for_target(circuit, target)
        for stage in passes:
            with phase(f"compile.{stage.name}"):
                stage.run(context)
    return TranspiledCircuit(
        circuit=context.circuit,
        initial_layout=context.routed.initial_layout,
        num_swaps=context.routed.num_swaps,
        metrics=context.metrics,
    )
