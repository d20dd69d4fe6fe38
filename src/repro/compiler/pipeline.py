"""The pass-pipeline compiler: composable stages over a shared context.

The seed-state :func:`repro.compiler.transpile.transpile` hardwired one
pass order (decompose -> layout -> route -> swap-expand) and one routing
strategy.  This module turns that fixed sequence into data:

* :class:`CompileContext` — the mutable state a circuit accumulates on
  its way to hardware: the working circuit, the target coupling map and
  error map, the chosen layout, the routed intermediate, the two-qubit
  edge trace and the final gate metrics.
* :class:`Pass` — the (runtime-checkable) protocol every stage
  implements: a ``name`` and a ``run(context)`` that advances the
  context in place.
* :class:`PassPipeline` — an ordered pass list with a
  :meth:`~PassPipeline.run` entry point producing a
  :class:`TranspiledCircuit`.
* :data:`LAYOUT_STRATEGIES` / :data:`ROUTING_STRATEGIES` — name-keyed
  strategy registries mirroring
  :data:`repro.core.architecture.ARCHITECTURES`, so layout and routing
  choices travel the CLI / registry / cache-key plumbing as plain
  strings.

``transpile()`` is now a thin wrapper over
:func:`default_pipeline` — bit-identical to the historical monolith at
the default strategies (the ``fig10`` golden pins this).

Adding a routing strategy is one registration::

    ROUTING_STRATEGIES.register(CompilerStrategy(
        name="lookahead",
        description="depth-2 lookahead SWAP selection",
        build=my_lookahead_router,   # (circuit, coupling, layout, edge_errors=None) -> RoutedCircuit
    ))

after which ``transpile(..., routing="lookahead")``,
``python -m repro run fig10 --routing lookahead`` and the appsweep
experiment all pick it up without further changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.decompose import decompose_swaps, decompose_to_cx_basis
from repro.compiler.layout import Layout, choose_layout
from repro.compiler.metrics import GateMetrics, gate_metrics
from repro.compiler.routing import (
    RoutedCircuit,
    route_circuit,
    route_circuit_noise_aware,
)
from repro.engine.phases import phase
from repro.engine.registry import did_you_mean
from repro.topology.coupling import CouplingMap

__all__ = [
    "CompileContext",
    "CompilerStrategy",
    "DEFAULT_LAYOUT",
    "DEFAULT_ROUTING",
    "DecomposePass",
    "LayoutPass",
    "LAYOUT_STRATEGIES",
    "MetricsPass",
    "Pass",
    "PassPipeline",
    "ROUTING_STRATEGIES",
    "RoutePass",
    "StrategyRegistry",
    "SwapExpandPass",
    "TranspiledCircuit",
    "default_pipeline",
]

#: Default strategy names — the seed-state behaviour.
DEFAULT_LAYOUT = "auto"
DEFAULT_ROUTING = "basic"


# ---------------------------------------------------------------------- #
# Strategy registries
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompilerStrategy:
    """One named layout or routing strategy.

    Attributes
    ----------
    name:
        Registry key (``"basic"``, ``"noise-aware"``, ``"dense"``, ...).
    description:
        One-line summary shown by ``python -m repro list``.
    build:
        The strategy callable.  Layout strategies take
        ``(circuit, coupling, edge_errors=None) -> Layout``; routing
        strategies take
        ``(circuit, coupling, layout, edge_errors=None) -> RoutedCircuit``.
    """

    name: str
    description: str
    build: Callable[..., Any] = field(compare=False)


class StrategyRegistry:
    """Mutable name -> :class:`CompilerStrategy` mapping.

    Mirrors :class:`repro.core.architecture.ArchitectureRegistry`:
    registration order is preserved, duplicates raise, and lookups of
    unknown names raise ``KeyError`` with a did-you-mean suggestion (the
    CLI turns that into an exit-2 diagnostic).
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._strategies: dict[str, CompilerStrategy] = {}

    def register(self, strategy: CompilerStrategy) -> CompilerStrategy:
        """Register a strategy; raises on duplicate names."""
        if strategy.name in self._strategies:
            raise ValueError(
                f"{self._kind} strategy {strategy.name!r} already registered"
            )
        self._strategies[strategy.name] = strategy
        return strategy

    def get(self, name: str) -> CompilerStrategy:
        """Resolve a strategy name; raises ``KeyError`` with suggestions."""
        if name not in self._strategies:
            known = ", ".join(self._strategies)
            suggestion = did_you_mean(name, self._strategies)
            raise KeyError(
                f"unknown {self._kind} strategy {name!r}{suggestion} "
                f"(known: {known})"
            )
        return self._strategies[name]

    def names(self) -> list[str]:
        """Registered strategy names, in registration order."""
        return list(self._strategies)

    def specs(self) -> list[CompilerStrategy]:
        """Every registered strategy, in registration order."""
        return list(self._strategies.values())

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def __len__(self) -> int:
        return len(self._strategies)


#: Initial-layout strategies (thin registry over ``choose_layout``).
LAYOUT_STRATEGIES = StrategyRegistry("layout")

#: SWAP-insertion routing strategies.
ROUTING_STRATEGIES = StrategyRegistry("routing")


def _layout_strategy(method: str):
    def build(
        circuit: QuantumCircuit,
        coupling: CouplingMap,
        edge_errors: dict[tuple[int, int], float] | None = None,
    ) -> Layout:
        return choose_layout(circuit, coupling, method=method, edge_errors=edge_errors)

    build.__name__ = f"layout_{method}"
    return build


LAYOUT_STRATEGIES.register(
    CompilerStrategy(
        name="auto",
        description="line for chain circuits, dense otherwise (the default)",
        build=_layout_strategy("auto"),
    )
)
LAYOUT_STRATEGIES.register(
    CompilerStrategy(
        name="line",
        description="embed along a long simple path (zero-SWAP chains)",
        build=_layout_strategy("line"),
    )
)
LAYOUT_STRATEGIES.register(
    CompilerStrategy(
        name="dense",
        description="densest connected region, interaction-BFS placement",
        build=_layout_strategy("dense"),
    )
)
LAYOUT_STRATEGIES.register(
    CompilerStrategy(
        name="noise",
        description="dense, seeded at the lowest-error qubit of the device",
        build=_layout_strategy("noise"),
    )
)


def _basic_routing(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    layout: Layout,
    edge_errors: dict[tuple[int, int], float] | None = None,
) -> RoutedCircuit:
    return route_circuit(circuit, coupling, layout)


ROUTING_STRATEGIES.register(
    CompilerStrategy(
        name="basic",
        description="greedy hop-shortest SWAP chains (the paper's router)",
        build=_basic_routing,
    )
)
ROUTING_STRATEGIES.register(
    CompilerStrategy(
        name="noise-aware",
        description="SWAPs along -log10(1-e) error-weighted shortest paths",
        build=route_circuit_noise_aware,
    )
)


# ---------------------------------------------------------------------- #
# Context and passes
# ---------------------------------------------------------------------- #
@dataclass
class CompileContext:
    """Mutable state threaded through every pass of a pipeline.

    Attributes
    ----------
    circuit:
        The working circuit; passes rewrite it in place of themselves
        (logical at first, physical after routing).
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
        The routing pass's full result (final layout, SWAP count,
        per-gate edge trace).
    two_qubit_edges:
        Physical coupling of every two-qubit gate in program order after
        SWAP expansion (the fidelity-product input).
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
    two_qubit_edges: list[tuple[int, int]] = field(default_factory=list)
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
    """Choose the initial layout with a registered layout strategy."""

    name = "layout"

    def __init__(self, method: str = DEFAULT_LAYOUT):
        self.method = method

    def run(self, context: CompileContext) -> None:
        strategy = LAYOUT_STRATEGIES.get(self.method)
        context.layout = strategy.build(
            context.circuit, context.coupling, edge_errors=context.edge_errors
        )


class RoutePass:
    """Insert SWAPs with a registered routing strategy."""

    name = "route"

    def __init__(self, strategy: str = DEFAULT_ROUTING):
        self.strategy = strategy

    def run(self, context: CompileContext) -> None:
        if context.layout is None:
            raise ValueError("routing requires a layout pass to have run")
        strategy = ROUTING_STRATEGIES.get(self.strategy)
        # Hand strategies the device itself when one is available so the
        # noise-aware router reuses its cached edge-error arrays.
        errors = context.device if context.device is not None else context.edge_errors
        routed = strategy.build(
            context.circuit,
            context.coupling,
            context.layout,
            edge_errors=errors,
        )
        context.routed = routed
        context.circuit = routed.circuit


class SwapExpandPass:
    """Expand SWAPs into 3 CX and record the per-gate edge trace."""

    name = "swap-expand"

    def run(self, context: CompileContext) -> None:
        routed = context.routed
        if routed is None:
            raise ValueError("SWAP expansion requires a routing pass to have run")
        # Each SWAP decomposes into three CX on the same coupling, so its
        # edge appears three times in the fidelity-product trace.
        edges: list[tuple[int, int]] = []
        for gate, edge in zip(
            (g for g in routed.circuit if g.num_qubits == 2), routed.two_qubit_edges
        ):
            edges.extend([edge, edge, edge] if gate.name == "swap" else [edge])
        context.two_qubit_edges = edges
        context.circuit = decompose_swaps(routed.circuit)


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
        Physical circuit in the {1-qubit, CX} basis.
    initial_layout:
        Virtual -> physical placement chosen by the layout pass.
    num_swaps:
        SWAPs inserted by routing (each contributes 3 CX to the counts).
    metrics:
        Table II-style gate metrics of the physical circuit.
    two_qubit_edges:
        Physical coupling used by each two-qubit gate, in program order,
        with SWAP gates expanded to three entries.
    """

    circuit: QuantumCircuit
    initial_layout: Layout
    num_swaps: int
    metrics: GateMetrics
    two_qubit_edges: list[tuple[int, int]] = field(default_factory=list)

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
            two_qubit_edges=context.two_qubit_edges,
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
        Registered layout strategy name (see :data:`LAYOUT_STRATEGIES`).
    routing:
        Registered routing strategy name (see :data:`ROUTING_STRATEGIES`).
    extra_passes:
        Additional passes appended after the metrics stage (analysis /
        diagnostic hooks).

    Unknown strategy names raise ``KeyError`` (with a did-you-mean
    suggestion) here, before any compilation work starts.
    """
    LAYOUT_STRATEGIES.get(layout_method)
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
