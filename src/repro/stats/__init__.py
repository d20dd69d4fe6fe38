"""Adaptive Monte-Carlo statistics: streaming chunks + confidence intervals.

Every yield estimate the repo publishes is a binomial success fraction;
this package upgrades those point estimates into interval estimates and
bounded-memory, bounded-error sampling:

* :mod:`repro.stats.intervals` — the Wilson binomial confidence interval
  (the Wald interval collapses exactly where the paper's yield-collapse
  curves live, at yields near 0 and 1);
* :mod:`repro.stats.streaming` — the chunked sampling contract (spawn-
  seeded, prefix-stable chunk seeds) and the O(1)-state
  :class:`StreamingEstimator` reduction;
* :mod:`repro.stats.adaptive` — the CI-targeted stopping rule and the
  :class:`StatsOptions` bundle the CLI threads into the sweeps.

Layering: ``repro.stats`` depends only on numpy/scipy and
:mod:`repro.engine.seeding`; it knows nothing about devices or
collisions, so any layer (core, analysis, benchmarks) may import it.
"""
