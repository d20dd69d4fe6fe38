"""Per-experiment modules regenerating every figure/table of the paper.

One module per figure or table; import each driver and result type from
its module.  Drivers that sweep Monte-Carlo points take an engine
(:mod:`repro.engine.runner`):

==========================  =============================================
Module                      Experiment
==========================  =============================================
``fig3_trends``             Fig. 3(b) processor-size infidelity trends
``tables``                  Table I collision criteria, Table II compiles
``fig4_yield``              Fig. 4 yield-vs-qubits grid (engine-parallel)
``fig6_configurations``     Fig. 6 configuration counting
``sec5c_output``            Section V-C fabrication-output comparison
``fig7_detuning``           Fig. 7 detuning-binned CX model
``fig8_mcm``                Fig. 8 MCM vs. monolithic yield comparison
``fig9_heatmaps``           Fig. 9 average-infidelity heat-maps
``fig10_apps``              Fig. 10 application-level fidelity ratios
``topologies``              cross-topology yield / MCM comparisons
``tuning``                  as-fab vs. repaired yield, repair-budget sweep
``appsweep``                topology x routing x repair application sweep
==========================  =============================================

The CLI-facing experiment registry lives in ``repro.analysis.registry``.
"""
