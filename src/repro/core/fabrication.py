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

Sampling is split into :meth:`FabricationModel.standard_draws` (the
sigma-independent standard-normal base draws ``z``) and the affine
scaling ``ideal + sigma * z`` — bitwise identical to the historical
``rng.normal(0, sigma, size)`` call (NumPy computes exactly
``loc + scale * standard_normal``; pinned by the property suite in
``tests/test_sample_bank.py``).  The split lets callers that fabricate
the same seeded batch at many sigmas share the base draws through
:mod:`repro.core.sample_bank` instead of re-sampling per grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frequencies import FrequencyAllocation
from repro.core.sample_bank import banked_standard_normal
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

    def standard_draws(
        self,
        allocation: FrequencyAllocation,
        length: int,
        rng: np.random.Generator,
        draw_seed=None,
    ) -> np.ndarray:
        """The sigma-independent standard-normal base draws of a batch.

        Returns a ``(length, num_qubits)`` array of N(0, 1) draws; the
        fabricated frequencies are ``ideal + sigma_ghz * draws``.  With a
        ``draw_seed`` — the exact seed ``rng`` was freshly constructed
        from — the draws go through the process-wide sample bank, so
        sweeps that revisit the same seeded batch at another sigma (or
        detuning step) reuse them instead of re-sampling.  Banked arrays
        are read-only; scale them, don't mutate them.
        """
        return banked_standard_normal(
            draw_seed, (length, allocation.num_qubits), rng
        )

    def sample_batch(
        self,
        allocation: FrequencyAllocation,
        batch_size: int,
        rng: np.random.Generator,
        draw_seed=None,
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
        draw_seed:
            Optional content identity of the base draws: the exact seed
            (int or tuple) ``rng`` was freshly constructed from, enabling
            the common-random-number sample bank
            (:mod:`repro.core.sample_bank`).  Omit for generators with
            history; the bank verifies the contract and falls back to
            direct sampling on any mismatch.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(batch_size, num_qubits)`` of actual
            frequencies in GHz.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        with phase("sample"):
            draws = self.standard_draws(
                allocation, batch_size, rng, draw_seed=draw_seed
            )
            # z * sigma (fresh array: draws may be a banked, read-only
            # entry) then an in-place broadcast add of the ideal row —
            # bitwise equal to ``ideal + sigma * z`` (IEEE multiply and
            # add are commutative) with one fewer full-size temporary.
            frequencies = draws * self.sigma_ghz
            frequencies += allocation.ideal_frequencies
            return frequencies
