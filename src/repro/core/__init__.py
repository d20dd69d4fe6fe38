"""The paper's contribution: collision modelling, chiplets and quantum MCMs.

Every model in this package is topology-pluggable: lattices come from
:data:`repro.core.architecture.ARCHITECTURES` (heavy-hex by default,
square grid and ring/chain included) and frequency labels from the
registered :class:`repro.core.frequencies.FrequencyPlan` strategies.
"""
