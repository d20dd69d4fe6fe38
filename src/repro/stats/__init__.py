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

from repro.stats.adaptive import (
    DEFAULT_MAX_SAMPLES,
    AdaptiveOutcome,
    StatsOptions,
    adaptive_estimate,
)
from repro.stats.intervals import (
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    binomial_ci,
    median_interval,
    midpoint_median,
    normal_quantile,
    wilson_interval,
)
from repro.stats.streaming import (
    DEFAULT_CHUNK_SIZE,
    StreamingEstimator,
    chunk_layout,
    chunk_seed,
)

__all__ = [
    "AdaptiveOutcome",
    "ConfidenceInterval",
    "StatsOptions",
    "StreamingEstimator",
    "adaptive_estimate",
    "binomial_ci",
    "chunk_layout",
    "chunk_seed",
    "median_interval",
    "midpoint_median",
    "normal_quantile",
    "wilson_interval",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_MAX_SAMPLES",
]
