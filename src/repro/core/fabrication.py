"""Fabrication-variation model for fixed-frequency transmons.

Josephson-junction processing imprecision shifts each qubit's frequency
away from its design target.  The paper (Section III-C) models this as an
independent Gaussian scatter with standard deviation ``sigma_f`` around the
ideal frequency:

* ``sigma_f = 0.1323 GHz`` — spread directly after fabrication,
* ``sigma_f = 0.014 GHz``  — after laser tuning (state of the art, used for
  all architecture evaluation in the paper),
* ``sigma_f = 0.006 GHz``  — projected precision needed to scale a
  monolithic device past ~1000 qubits.

:class:`FabricationModel` turns a :class:`FrequencyAllocation` into batches
of sampled devices, optionally applying post-fabrication laser tuning that
shrinks the effective scatter.

Sampling draws ``z = rng.standard_normal((batch, num_qubits))`` and
scales it in place to ``ideal + sigma * z`` — bitwise identical to the
historical ``ideal + rng.normal(0, sigma, size)`` draw (NumPy computes
exactly ``loc + scale * standard_normal``; pinned by the property suite
in ``tests/test_fabrication.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frequencies import FrequencyAllocation
from repro.engine.phases import phase

__all__ = [
    "FabricationModel",
    "SIGMA_AS_FABRICATED_GHZ",
    "SIGMA_LASER_TUNED_GHZ",
    "SIGMA_SCALING_TARGET_GHZ",
]

#: Frequency scatter straight out of fabrication (GHz), from Hertzberg et al.
SIGMA_AS_FABRICATED_GHZ = 0.1323

#: Frequency scatter after laser tuning (GHz) — the paper's working value.
SIGMA_LASER_TUNED_GHZ = 0.014

#: Precision the paper identifies as necessary for >1000-qubit monoliths.
SIGMA_SCALING_TARGET_GHZ = 0.006


@dataclass(frozen=True)
class FabricationModel:
    """Gaussian frequency-scatter model.

    Attributes
    ----------
    sigma_ghz:
        Standard deviation of the scatter around each ideal frequency.
    """

    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ

    def __post_init__(self) -> None:
        if self.sigma_ghz < 0:
            raise ValueError("sigma_ghz must be non-negative")

    def sample_batch(
        self,
        allocation: FrequencyAllocation,
        batch_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample a batch of fabricated devices.

        Parameters
        ----------
        allocation:
            Frequency plan providing the per-qubit ideal frequencies.
        batch_size:
            Number of devices to fabricate.
        rng:
            Source of randomness.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(batch_size, num_qubits)`` of actual
            frequencies in GHz.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        with phase("sample"):
            # z * sigma then a broadcast add of the ideal row, both in
            # place — bitwise equal to ``ideal + sigma * z`` (IEEE
            # multiply and add are commutative) with no full-size
            # temporary.
            frequencies = rng.standard_normal((batch_size, allocation.num_qubits))
            frequencies *= self.sigma_ghz
            frequencies += allocation.ideal_frequencies
            return frequencies
