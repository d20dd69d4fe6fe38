"""Experiment harness: architecture studies, per-figure drivers, reporting.

The figure/table drivers live in :mod:`repro.analysis.figures` (one module
per experiment) and run through the parallel execution engine
(:mod:`repro.engine`); :mod:`repro.analysis.registry` maps experiment
names to runners for the ``python -m repro`` CLI.
"""

from repro.analysis.figures import (
    Fig3Result,
    Fig4Result,
    Fig7Result,
    Fig8Result,
    Fig9Result,
    Fig10Result,
    Table1Result,
    Table2Result,
    run_fig3_processor_trends,
    run_fig4_yield_sweep,
    run_fig6_configurations,
    run_fig7_detuning_model,
    run_fig8_yield_comparison,
    run_fig9_infidelity_heatmap,
    run_fig10_applications,
    run_sec5c_fabrication_output,
    run_table1_collision_criteria,
    run_table2_compiled_benchmarks,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.study import ArchitectureStudy, MCMResult, MonolithicResult, StudyConfig

__all__ = [
    "Fig3Result",
    "Fig4Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Table1Result",
    "Table2Result",
    "run_fig3_processor_trends",
    "run_fig4_yield_sweep",
    "run_fig6_configurations",
    "run_fig7_detuning_model",
    "run_fig8_yield_comparison",
    "run_fig9_infidelity_heatmap",
    "run_fig10_applications",
    "run_sec5c_fabrication_output",
    "run_table1_collision_criteria",
    "run_table2_compiled_benchmarks",
    "format_series",
    "format_table",
    "ArchitectureStudy",
    "MCMResult",
    "MonolithicResult",
    "StudyConfig",
]
