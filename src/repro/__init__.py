"""repro — reproduction of "Scaling Superconducting Quantum Computers with
Chiplet Architectures" (Smith, Ravi, Baker, Chong — MICRO 2022).

The package models collision-limited yield of fixed-frequency transmon
devices, proposes heavy-hex chiplets assembled into multi-chip modules
(MCMs), and evaluates both architectures in terms of yield, average
two-qubit gate infidelity, and application-level fidelity.

Sub-packages
------------
``repro.topology``
    Pluggable lattices (heavy-hex, square grid, ring/chain) behind the
    ``Lattice`` protocol, and coupling maps.
``repro.device``
    Physical-device model, synthetic calibration data, gate-error models.
``repro.core``
    The paper's contribution: frequency-plan strategies, collision
    criteria, Monte-Carlo yield, chiplets, MCM topologies, assembly and
    fidelity comparison models — all behind the topology-pluggable
    architecture registry (``repro.core.architecture``).
``repro.circuits``
    Quantum-circuit IR and the seven-benchmark suite.
``repro.compiler``
    Layout, routing and decomposition onto restricted connectivity.
``repro.simulation``
    The ESP fidelity-product figure of merit.
``repro.analysis``
    Experiment drivers regenerating every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
