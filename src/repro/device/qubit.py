"""Physical-qubit record used by the device model.

The paper's modelling only needs a qubit's actual frequency, its ideal
(design) frequency label and its anharmonicity, but real calibration data
also reports coherence times, so the record carries optional T1/T2 fields
for use by extended noise models.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PhysicalQubit"]


@dataclass(frozen=True)
class PhysicalQubit:
    """One physical transmon qubit.

    Attributes
    ----------
    index:
        Position of the qubit in its device.
    frequency_ghz:
        Actual (post-fabrication) |0>-|1> transition frequency.
    ideal_frequency_ghz:
        Design-target frequency (one of F0/F1/F2).
    label:
        Frequency label: 0, 1 or 2.
    anharmonicity_ghz:
        Transmon anharmonicity (negative).
    t1_us, t2_us:
        Optional relaxation / dephasing times in microseconds.
    tuned:
        True when the qubit's frequency was shifted by a
        post-fabrication tuner (see :mod:`repro.tuning`); the frequency
        fields then describe the *post-repair* device.
    """

    index: int
    frequency_ghz: float
    ideal_frequency_ghz: float
    label: int
    anharmonicity_ghz: float = -0.330
    t1_us: float | None = None
    t2_us: float | None = None
    tuned: bool = False
