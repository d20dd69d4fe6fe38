"""Compiler substrate: pass pipeline, decomposition, layout, routing."""

from repro.compiler.decompose import decompose_to_cx_basis
from repro.compiler.layout import (
    LAYOUT_METHODS,
    Layout,
    choose_layout,
    find_long_path,
    is_chain_circuit,
)
from repro.compiler.metrics import GateMetrics, gate_metrics
from repro.compiler.pipeline import (
    CompileContext,
    Pass,
    PassPipeline,
    ROUTING_STRATEGIES,
    default_pipeline,
)
from repro.compiler.routing import RoutedCircuit, route_circuit, route_circuit_noise_aware
from repro.compiler.transpile import TranspiledCircuit, transpile

__all__ = [
    "decompose_to_cx_basis",
    "LAYOUT_METHODS",
    "Layout",
    "choose_layout",
    "find_long_path",
    "is_chain_circuit",
    "GateMetrics",
    "gate_metrics",
    "CompileContext",
    "Pass",
    "PassPipeline",
    "ROUTING_STRATEGIES",
    "default_pipeline",
    "RoutedCircuit",
    "route_circuit",
    "route_circuit_noise_aware",
    "TranspiledCircuit",
    "transpile",
]
