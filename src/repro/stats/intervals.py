"""Binomial confidence intervals for Monte-Carlo yield estimates.

Every yield number the package reports is the success fraction of a
binomial experiment (``num_collision_free`` out of ``batch_size``
virtually fabricated devices).  The paper's Fig. 4 / Fig. 8 curves live
deep in the tails of that distribution — yields indistinguishable from 0
or 1 — where the textbook Wald interval ``p +/- z * sqrt(p(1-p)/n)``
degenerates to a width of zero.  The Wilson score interval
(:func:`wilson_interval`, Wilson 1927) does not: it is closed form,
never escapes ``[0, 1]``, always contains the point estimate, and keeps
a sensible width at 0 or n successes.  :func:`binomial_ci` wraps it in a
:class:`ConfidenceInterval` value object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConfidenceInterval",
    "binomial_ci",
    "median_interval",
    "midpoint_median",
    "wilson_interval",
    "normal_quantile",
    "DEFAULT_CONFIDENCE",
]

#: Confidence level used when the caller does not specify one.
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a binomial proportion.

    Attributes
    ----------
    low, high:
        Interval bounds, clipped to ``[0, 1]``.
    estimate:
        The point estimate (``successes / trials``) the interval brackets.
    confidence:
        Nominal two-sided confidence level (e.g. ``0.95``).
    method:
        Construction used (``"wilson"`` or ``"median-order"``).
    """

    low: float
    high: float
    estimate: float
    confidence: float
    method: str

    @property
    def half_width(self) -> float:
        """Half of the interval width — the adaptive stopping criterion."""
        return (self.high - self.low) / 2.0

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def normal_quantile(probability: float) -> float:
    """Standard-normal quantile (:func:`scipy.special.ndtri`)."""
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    # Imported on first use: scipy.special is not needed to import the
    # package, only to compute an interval.
    from scipy.special import ndtri

    return float(ndtri(probability))


def _validate(successes: int, trials: int, confidence: float) -> None:
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")


def wilson_interval(
    successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The interval is the set of hypothesised proportions the score test
    does not reject; it is contained in ``[0, 1]`` and always brackets
    the point estimate ``successes / trials``.
    """
    _validate(successes, trials, confidence)
    z = normal_quantile(0.5 + confidence / 2.0)
    n = float(trials)
    p_hat = successes / n
    z2 = z * z
    denominator = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denominator
    margin = (z / denominator) * math.sqrt(
        p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)
    )
    # The Wilson interval brackets the MLE by construction; the min/max
    # only absorbs floating-point residue at the 0 and n boundaries.
    low = max(0.0, min(centre - margin, p_hat))
    high = min(1.0, max(centre + margin, p_hat))
    return (low, high)


def binomial_ci(
    successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE
) -> ConfidenceInterval:
    """Wilson confidence interval for ``successes`` out of ``trials``."""
    low, high = wilson_interval(successes, trials, confidence)
    return ConfidenceInterval(
        low=low,
        high=high,
        estimate=successes / trials,
        confidence=confidence,
        method="wilson",
    )


def _midpoint(ordered: "list[float]") -> float:
    """Midpoint-interpolated median of an already-sorted list."""
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def midpoint_median(values) -> float:
    """Midpoint-interpolated sample median (the one idiom, shared).

    The estimator :func:`median_interval` brackets; also reused by the
    application-evaluation ensemble summaries.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("midpoint_median needs at least one value")
    return _midpoint(ordered)


def median_interval(
    values: "list[float] | tuple[float, ...]",
    confidence: float = DEFAULT_CONFIDENCE,
) -> ConfidenceInterval:
    """Order-statistic (distribution-free) confidence interval for a median.

    The interval between the ``k``-th smallest and ``k``-th largest
    observations covers the population median with exact probability
    ``1 - 2 * BinomCDF(k - 1; n, 1/2)`` whatever the underlying
    distribution; this picks the tightest symmetric pair whose coverage
    still reaches ``confidence``.  For very small samples even the full
    range (coverage ``1 - 2^(1-n)``) may fall short of the requested
    level — the full range is returned then, as the honest spread the
    sample supports.  The returned interval's ``confidence`` is the
    *achieved* exact coverage of the chosen pair (>= the request for
    large samples, below it only when no pair can reach it), never a
    nominal label a downstream consumer could over-trust.  Used by the
    application-evaluation layer to report the spread of a top-k device
    ensemble's fidelity scores.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median_interval needs at least one value")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    estimate = _midpoint(ordered)
    if n == 1:
        return ConfidenceInterval(
            low=estimate,
            high=estimate,
            estimate=estimate,
            confidence=0.0,
            method="median-order",
        )

    # Exact symmetric-binomial coverage via math.comb: ensembles are
    # small (top-k devices), so the O(n^2) tail sums are negligible.
    def _coverage(k: int) -> float:
        tail = sum(math.comb(n, i) for i in range(k)) / 2.0**n
        return 1.0 - 2.0 * tail

    best_k = 1
    for k in range(2, n // 2 + 1):
        if _coverage(k) >= confidence:
            best_k = k
        else:
            break
    return ConfidenceInterval(
        low=min(ordered[best_k - 1], estimate),
        high=max(ordered[n - best_k], estimate),
        estimate=estimate,
        confidence=_coverage(best_k),
        method="median-order",
    )

