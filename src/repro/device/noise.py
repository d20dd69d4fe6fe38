"""Gate-error models: detuning-binned empirical CX errors and link errors.

Two models feed the architecture evaluation:

* :class:`EmpiricalCXModel` — the paper's Section VI-A on-chip model.  CX
  infidelities observed on a (synthetic) Washington-class calibration
  dataset are binned by qubit-qubit detuning (0.1 GHz bins); assigning an
  error to a fabricated coupling means sampling from the bin matching its
  actual detuning.
* :class:`LinkErrorModel` — the Section VI-B inter-chip model.  The
  published flip-chip experiments report an average two-qubit link fidelity
  of 92.5 % (median 94.4 %); a log-normal distribution matched to those two
  statistics stands in for the unavailable raw data.  Scaled variants model
  the improved-link scenarios of Fig. 9 (e_link / e_chip of 3, 2 and 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log, sqrt

import numpy as np

__all__ = [
    "EmpiricalCXModel",
    "LinkErrorModel",
    "DEFAULT_BIN_WIDTH_GHZ",
    "LINK_MEAN_INFIDELITY",
    "LINK_MEDIAN_INFIDELITY",
    "ON_CHIP_MEAN_INFIDELITY",
    "ON_CHIP_MEDIAN_INFIDELITY",
]

#: Detuning bin width used in the paper's Fig. 7 (GHz).
DEFAULT_BIN_WIDTH_GHZ = 0.1

#: Published statistics the models are matched against.
LINK_MEAN_INFIDELITY = 0.075     # 1 - 92.5 % coherence-limited fidelity
LINK_MEDIAN_INFIDELITY = 0.056   # 1 - 94.4 %
ON_CHIP_MEAN_INFIDELITY = 0.018  # IBM Washington average CX infidelity
ON_CHIP_MEDIAN_INFIDELITY = 0.012


@dataclass
class EmpiricalCXModel:
    """Detuning-binned empirical two-qubit gate error model.

    Attributes
    ----------
    bin_width_ghz:
        Width of each detuning bin.
    bins:
        Mapping from bin index (``int(|detuning| / bin_width)``) to the array
        of infidelity samples observed in that bin.
    """

    bin_width_ghz: float = DEFAULT_BIN_WIDTH_GHZ
    bins: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def fit(
        cls,
        detunings_ghz: np.ndarray,
        infidelities: np.ndarray,
        bin_width_ghz: float = DEFAULT_BIN_WIDTH_GHZ,
    ) -> "EmpiricalCXModel":
        """Build the model from paired (detuning, infidelity) observations."""
        detunings = np.abs(np.asarray(detunings_ghz, dtype=float))
        errors = np.asarray(infidelities, dtype=float)
        if detunings.shape != errors.shape:
            raise ValueError("detunings and infidelities must have the same shape")
        if detunings.size == 0:
            raise ValueError("cannot fit an empirical model to zero observations")
        if bin_width_ghz <= 0:
            raise ValueError("bin_width_ghz must be positive")
        indices = np.floor(detunings / bin_width_ghz).astype(int)
        bins = {
            int(index): errors[indices == index]
            for index in np.unique(indices)
        }
        return cls(bin_width_ghz=bin_width_ghz, bins=bins)

    def _all_samples(self) -> np.ndarray:
        return np.concatenate(list(self.bins.values()))

    @property
    def num_observations(self) -> int:
        """Total number of observations behind the model."""
        return int(sum(v.size for v in self.bins.values()))

    def sample_many(
        self, detunings_ghz: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one infidelity per detuning in the input array.

        The sampling is vectorised per detuning bin, so characterising the
        couplings of thousands of fabricated chiplets stays cheap.
        """
        detunings = np.abs(np.asarray(detunings_ghz, dtype=float))
        flat = np.ravel(detunings)
        indices = np.floor(flat / self.bin_width_ghz).astype(int)
        populated = np.asarray(sorted(self.bins), dtype=int)
        if populated.size == 0:
            raise ValueError("empirical model has no observations")
        # Snap every requested bin to the nearest populated bin.
        nearest = populated[
            np.argmin(np.abs(indices[:, np.newaxis] - populated[np.newaxis, :]), axis=1)
        ]
        output = np.empty(flat.shape, dtype=float)
        for bin_index in np.unique(nearest):
            mask = nearest == bin_index
            samples = self.bins[int(bin_index)]
            output[mask] = rng.choice(samples, size=int(mask.sum()))
        return output.reshape(np.shape(detunings_ghz))

    def median(self) -> float:
        """Median infidelity over every observation."""
        return float(np.median(self._all_samples()))

    def mean(self) -> float:
        """Mean infidelity over every observation."""
        return float(self._all_samples().mean())

    def bin_means(self) -> dict[float, float]:
        """Mapping from bin centre (GHz) to the mean infidelity of the bin."""
        return {
            (index + 0.5) * self.bin_width_ghz: float(samples.mean())
            for index, samples in sorted(self.bins.items())
        }


@dataclass(frozen=True)
class LinkErrorModel:
    """Log-normal model of inter-chip (flip-chip) two-qubit gate error.

    Attributes
    ----------
    mu, sigma:
        Parameters of the underlying log-normal distribution: the median is
        ``exp(mu)`` and the mean ``exp(mu + sigma**2 / 2)``.
    max_infidelity:
        Samples are clipped to this value so pathological draws cannot
        exceed a completely depolarising gate.
    """

    mu: float
    sigma: float
    max_infidelity: float = 0.5

    @classmethod
    def from_mean_median(
        cls,
        mean: float = LINK_MEAN_INFIDELITY,
        median: float = LINK_MEDIAN_INFIDELITY,
    ) -> "LinkErrorModel":
        """Match a log-normal to a published (mean, median) pair."""
        if median <= 0 or mean <= 0:
            raise ValueError("mean and median must be positive")
        if mean < median:
            raise ValueError("a log-normal requires mean >= median")
        mu = log(median)
        sigma = sqrt(2.0 * log(mean / median))
        return cls(mu=mu, sigma=sigma)

    @property
    def mean(self) -> float:
        """Mean link infidelity."""
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    @property
    def median(self) -> float:
        """Median link infidelity."""
        return float(np.exp(self.mu))

    def scaled_to_mean(self, target_mean: float) -> "LinkErrorModel":
        """Multiplicatively rescale the distribution to a new mean.

        Used for the Fig. 9 link-improvement scenarios where
        ``e_link = r * e_chip`` for r in {3, 2, 1}.
        """
        if target_mean <= 0:
            raise ValueError("target_mean must be positive")
        shift = log(target_mean / self.mean)
        return LinkErrorModel(
            mu=self.mu + shift, sigma=self.sigma, max_infidelity=self.max_infidelity
        )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw link infidelities (scalar when ``size`` is ``None``)."""
        draws = np.exp(rng.normal(self.mu, self.sigma, size=size))
        clipped = np.clip(draws, 0.0, self.max_infidelity)
        if size is None:
            return float(clipped)
        return clipped
