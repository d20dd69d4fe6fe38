"""Experiment harness: architecture studies, per-figure drivers, reporting.

The figure/table drivers live in :mod:`repro.analysis.figures` (one module
per experiment) and run through the parallel execution engine
(:mod:`repro.engine`); :mod:`repro.analysis.registry` maps experiment
names to runners for the ``python -m repro`` CLI.
"""
