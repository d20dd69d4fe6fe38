"""Simulation substrate: the ESP fidelity product."""
