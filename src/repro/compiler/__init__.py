"""Compiler substrate: pass pipeline, decomposition, layout, routing."""

# The one package-level name: ``perfbench/test_perfbench_harness.py``
# calls the layout search through this binding.  ``layout`` imports
# nothing from ``repro.analysis``, ``repro.core`` or ``repro.tuning``, so
# this cannot close a cycle.
from repro.compiler.layout import find_long_path

__all__ = ["find_long_path"]
