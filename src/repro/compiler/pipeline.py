"""The pass-pipeline compiler: composable stages over a shared context.

The seed-state :func:`repro.compiler.transpile.transpile` hardwired one
pass order (decompose -> layout -> route -> swap-expand) and one routing
strategy.  This module turns that fixed sequence into data:

* :class:`CompileContext` — the mutable state a circuit accumulates on
  its way to hardware: the working circuit, the target coupling map and
  error map, the chosen layout, the routed intermediate and the final
  gate metrics.
* :class:`Pass` — the (runtime-checkable) protocol every stage
  implements: a ``name`` and a ``run(context)`` that advances the
  context in place.
* :class:`PassPipeline` — an ordered pass list with a
  :meth:`~PassPipeline.run` entry point producing a
  :class:`TranspiledCircuit`.
* :data:`ROUTING_STRATEGIES` — the routing-strategy
  :class:`~repro.engine.registry.Registry`, so routing choices travel
  the CLI / service / cache-key plumbing as plain strings.  Layout
  methods are the fixed :data:`~repro.compiler.layout.LAYOUT_METHODS`
  of :func:`~repro.compiler.layout.choose_layout`.

``transpile()`` is now a thin wrapper over
:func:`default_pipeline` — bit-identical to the historical monolith at
the default strategies (the ``fig10`` golden pins this).

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

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import Layout, check_layout_method, choose_layout
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
    "DEFAULT_LAYOUT",
    "DEFAULT_ROUTING",
    "DecomposePass",
    "LayoutPass",
    "MetricsPass",
    "Pass",
    "PassPipeline",
    "ROUTING_STRATEGIES",
    "RoutePass",
    "SwapExpandPass",
    "TranspiledCircuit",
    "default_pipeline",
]

#: Default strategy names — the seed-state behaviour.
DEFAULT_LAYOUT = "auto"
DEFAULT_ROUTING = "basic"


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
    """Mutable state threaded through every pass of a pipeline.

    Attributes
    ----------
    circuit:
        The working circuit as gate columns; each pass replaces it with
        its output (logical at first, physical after routing, in the
        {1-qubit, CX} basis after SWAP expansion).
    coupling:
        Target connectivity.
    edge_errors:
        Target per-coupling infidelity map (``None`` when compiling onto
        a bare :class:`CouplingMap`); consumed by the noise layout seed
        and the noise-aware router.
    device:
        The target device itself when one was supplied (``None`` for a
        bare coupling map); the routing pass hands it to strategies so
        they can reuse its cached edge-error arrays.
    layout:
        Virtual -> physical placement chosen by the layout pass.
    routed:
        The routing pass's full result (the physical circuit with explicit
        SWAPs, final layout, SWAP count).
    metrics:
        Table II-style gate metrics of the final physical circuit.
    properties:
        Free-form scratch space for custom passes (analysis results,
        diagnostics); the built-in passes never touch it.
    """

    circuit: QuantumCircuit
    coupling: CouplingMap
    edge_errors: dict[tuple[int, int], float] | None = None
    device: Any = None
    layout: Layout | None = None
    routed: RoutedCircuit | None = None
    metrics: GateMetrics | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_target(cls, circuit: QuantumCircuit, target) -> "CompileContext":
        """Build a context for a :class:`Device` or bare coupling map."""
        from repro.device.device import Device

        if isinstance(target, Device):
            return cls(
                circuit=circuit,
                coupling=target.coupling,
                edge_errors=target.edge_errors,
                device=target,
            )
        return cls(circuit=circuit, coupling=target)


@runtime_checkable
class Pass(Protocol):
    """One compilation stage: advances a :class:`CompileContext` in place."""

    name: str

    def run(self, context: CompileContext) -> None:
        """Apply the pass to the context."""
        ...  # pragma: no cover - protocol body


class DecomposePass:
    """Rewrite the working circuit into the {1-qubit, CX} basis."""

    name = "decompose"

    def run(self, context: CompileContext) -> None:
        context.circuit = decompose_to_cx_basis(context.circuit)


class LayoutPass:
    """Choose the initial layout with :func:`choose_layout`."""

    name = "layout"

    def __init__(self, method: str = DEFAULT_LAYOUT):
        self.method = method

    def run(self, context: CompileContext) -> None:
        context.layout = choose_layout(
            context.circuit,
            context.coupling,
            method=self.method,
            edge_errors=context.edge_errors,
        )


class RoutePass:
    """Insert SWAPs with a registered routing strategy."""

    name = "route"

    def __init__(self, strategy: str = DEFAULT_ROUTING):
        self.strategy = strategy

    def run(self, context: CompileContext) -> None:
        if context.layout is None:
            raise ValueError("routing requires a layout pass to have run")
        route = ROUTING_STRATEGIES.get(self.strategy)
        # Hand strategies the device itself when one is available so the
        # noise-aware router reuses its cached edge-error arrays.
        errors = context.device if context.device is not None else context.edge_errors
        routed = route(
            context.circuit,
            context.coupling,
            context.layout,
            edge_errors=errors,
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
        routed = context.routed
        if routed is None:
            raise ValueError("SWAP expansion requires a routing pass to have run")
        # A routed circuit is in the CX basis plus SWAPs, so the basis
        # rewrite expands exactly its SWAPs.
        context.circuit = decompose_to_cx_basis(routed.circuit)


class MetricsPass:
    """Compute Table II-style gate metrics of the physical circuit."""

    name = "metrics"

    def run(self, context: CompileContext) -> None:
        context.metrics = gate_metrics(context.circuit)


# ---------------------------------------------------------------------- #
# The pipeline
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

    @property
    def num_two_qubit_gates(self) -> int:
        """Two-qubit gate count of the physical circuit."""
        return self.metrics.num_two_qubit


class PassPipeline:
    """An ordered sequence of passes compiling circuits onto hardware.

    Parameters
    ----------
    passes:
        The stages, run in order.  :func:`default_pipeline` builds the
        seed-state sequence (decompose, layout, route, swap-expand,
        metrics); callers may interleave custom :class:`Pass`
        implementations anywhere in the list.
    """

    def __init__(self, passes: Iterable[Pass]):
        self.passes: list[Pass] = list(passes)
        for stage in self.passes:
            if not isinstance(stage, Pass):
                raise TypeError(
                    f"{stage!r} does not implement the Pass protocol "
                    "(a `name` attribute and a `run(context)` method)"
                )

    def pass_names(self) -> list[str]:
        """The pass names, in execution order."""
        return [stage.name for stage in self.passes]

    def run_context(self, circuit: QuantumCircuit, target) -> CompileContext:
        """Run every pass and return the full final context.

        Each pass books its wall-clock to its own ``compile.<name>`` phase
        (``compile.decompose``, ``compile.layout``, ...).
        """
        context = CompileContext.for_target(circuit, target)
        for stage in self.passes:
            with phase(f"compile.{stage.name}"):
                stage.run(context)
        return context

    def run(self, circuit: QuantumCircuit, target) -> TranspiledCircuit:
        """Compile ``circuit`` onto ``target`` and package the result.

        ``target`` is a :class:`repro.device.device.Device` or a bare
        :class:`CouplingMap`.  Requires the pipeline to contain (at
        least) layout, route, swap-expand and metrics stages; pipelines
        that stop earlier should use :meth:`run_context` instead.
        """
        context = self.run_context(circuit, target)
        if context.routed is None or context.metrics is None:
            raise ValueError(
                "pipeline did not produce a routed, measured circuit; "
                "use run_context() for partial pipelines"
            )
        return TranspiledCircuit(
            circuit=context.circuit,
            initial_layout=context.routed.initial_layout,
            num_swaps=context.routed.num_swaps,
            metrics=context.metrics,
        )


def default_pipeline(
    layout_method: str = DEFAULT_LAYOUT,
    routing: str = DEFAULT_ROUTING,
    extra_passes: Sequence[Pass] = (),
) -> PassPipeline:
    """The seed-state pass sequence with pluggable strategies.

    Parameters
    ----------
    layout_method:
        Layout method (see :data:`~repro.compiler.layout.LAYOUT_METHODS`).
    routing:
        Registered routing strategy name (see :data:`ROUTING_STRATEGIES`).
    extra_passes:
        Additional passes appended after the metrics stage (analysis /
        diagnostic hooks).

    Unknown layout or routing names raise ``KeyError`` (with a
    did-you-mean suggestion) here, before any compilation work starts.
    """
    check_layout_method(layout_method)
    ROUTING_STRATEGIES.get(routing)
    return PassPipeline(
        [
            DecomposePass(),
            LayoutPass(layout_method),
            RoutePass(routing),
            SwapExpandPass(),
            MetricsPass(),
            *extra_passes,
        ]
    )
