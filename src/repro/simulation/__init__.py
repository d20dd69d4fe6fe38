"""Simulation substrate: the ESP fidelity product."""

from repro.simulation.esp import FidelityScore, fidelity_product, fidelity_ratio

__all__ = [
    "FidelityScore",
    "fidelity_product",
    "fidelity_ratio",
]
