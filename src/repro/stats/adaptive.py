"""Adaptive (CI-targeted) Monte-Carlo sampling.

:func:`adaptive_estimate` is a generic driver: it pulls binomial chunk
outcomes from a callback until the running confidence interval is tight
enough (half-width at or below ``ci_target``) or a hard sample cap is
hit.  It knows nothing about devices or collisions — the yield model
supplies a ``draw_chunk`` that fabricates and reduces one spawn-seeded
chunk — so the same stopping rule serves any binomial experiment the
repo grows.

:class:`StatsOptions` is the user-facing bundle of the statistics knobs
(`--chunk-size`, ``--ci-target``, ``--max-samples`` on the CLI) threaded
from the command line through the experiment registry into the sweep
entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.stats.intervals import DEFAULT_CONFIDENCE
from repro.stats.streaming import DEFAULT_CHUNK_SIZE, StreamingEstimator, chunk_layout

__all__ = ["AdaptiveOutcome", "StatsOptions", "adaptive_estimate", "DEFAULT_MAX_SAMPLES"]

#: Hard sample cap of an adaptive run when the caller does not set one.
DEFAULT_MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class AdaptiveOutcome:
    """What an adaptive run observed and why it stopped.

    Attributes
    ----------
    successes, trials:
        Accumulated binomial totals (``trials`` is the samples used).
    chunks:
        Number of chunks drawn.
    reached_target:
        True when the run stopped because the CI half-width hit the
        target; False when it exhausted the sample cap first.
    half_width:
        Realised CI half-width at the stopping point.
    """

    successes: int
    trials: int
    chunks: int
    reached_target: bool
    half_width: float


def adaptive_estimate(
    draw_chunk: Callable[[int, int], tuple[int, int]],
    ci_target: float | None,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "wilson",
) -> AdaptiveOutcome:
    """Draw chunks until the CI half-width reaches ``ci_target``.

    Parameters
    ----------
    draw_chunk:
        ``draw_chunk(chunk_index, chunk_length) -> (successes, trials)``.
        Implementations must key their randomness on the chunk index
        (see :func:`repro.stats.streaming.chunk_seed`) so the samples an
        adaptive run observes are a prefix of the fixed-batch run's.
    ci_target:
        Stop once the running CI half-width is at or below this value;
        ``None`` never stops early, so every chunk up to ``max_samples``
        is drawn (the fixed-batch streaming run).
    max_samples:
        Hard cap on the total trials; the run stops there even if the
        target was never reached.
    chunk_size:
        Trials per chunk (the last chunk shrinks to land exactly on
        ``max_samples`` — the same ragged layout as
        :func:`repro.stats.streaming.chunk_layout`).
    confidence, method:
        Interval parameters of the stopping criterion.
    """
    if ci_target is not None and not ci_target >= 0.0:
        raise ValueError("ci_target must be a non-negative number")
    if max_samples <= 0:
        raise ValueError("max_samples must be positive")

    estimator = StreamingEstimator(confidence=confidence, method=method)
    layout = chunk_layout(max_samples, chunk_size)
    reached = False
    for index, length in enumerate(layout):
        successes, trials = draw_chunk(index, length)
        estimator.update(successes, trials)
        if ci_target is not None and estimator.half_width() <= ci_target:
            reached = True
            break
    return AdaptiveOutcome(
        successes=estimator.successes,
        trials=estimator.trials,
        chunks=estimator.chunks,
        reached_target=reached,
        half_width=estimator.half_width(),
    )


@dataclass(frozen=True)
class StatsOptions:
    """Statistics knobs threaded from the CLI into the yield sweeps.

    Attributes
    ----------
    chunk_size:
        Devices fabricated per chunk.  Setting it switches a sweep point
        to the O(chunk)-memory streaming sampler; the chunk partition is
        part of the seeded sampling scheme, so results are a function of
        ``(seed, chunk_size)``.
    ci_target:
        Target CI half-width; setting it enables adaptive stopping.
    max_samples:
        Hard sample cap of adaptive runs (defaults to the sweep's batch
        size when unset).
    confidence, method:
        Interval parameters attached to every resulting
        :class:`~repro.core.yield_model.YieldResult`.
    """

    chunk_size: int | None = None
    ci_target: float | None = None
    max_samples: int | None = None
    confidence: float = DEFAULT_CONFIDENCE
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        # ``not >=`` also rejects NaN, which every comparison fails.
        if self.ci_target is not None and not self.ci_target >= 0.0:
            raise ValueError("ci_target must be a non-negative number")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError("max_samples must be positive")
        if self.max_samples is not None and self.ci_target is None:
            raise ValueError(
                "max_samples only applies to adaptive runs — set ci_target "
                "(fixed-size runs are bounded by the sweep's batch size)"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly inside (0, 1)")

    @property
    def is_default(self) -> bool:
        """True when no knob differs from the defaults (legacy sampling).

        Includes ``confidence`` and ``method``: a caller asking for 99%
        or Jeffreys intervals must reach the stats-aware code paths even
        with default chunking.
        """
        return (
            self.chunk_size is None
            and self.ci_target is None
            and self.max_samples is None
            and self.confidence == DEFAULT_CONFIDENCE
            and self.method == "wilson"
        )
