"""The historical scalar collision loop, kept verbatim as a parity reference.

``find_collisions`` now evaluates the shared Table I criterion functions
of :mod:`repro.core.collisions` vectorised over a device's directed
edges and control triples, and lists the violations with ``np.nonzero``.
The body below is the per-edge, per-triple loop it replaced, with
``_pairwise_arrays`` inlined: each criterion written out once more, so
the oracle stays independent of the shared functions.
``test_collisions_parity.py`` compares reports, order included, and the
``CollisionGraph`` counts against it; nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from repro.core.collisions import CollisionReport, CollisionThresholds
from repro.core.frequencies import FrequencyAllocation


def reference_find_collisions(
    allocation: FrequencyAllocation,
    frequencies: np.ndarray,
    thresholds: CollisionThresholds | None = None,
) -> CollisionReport:
    """List every collision on a single device, one criterion at a time."""
    thresholds = thresholds or CollisionThresholds()
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.shape != (allocation.num_qubits,):
        raise ValueError(
            f"expected {allocation.num_qubits} frequencies, got shape {freqs.shape}"
        )
    alpha = allocation.anharmonicities
    report = CollisionReport()
    edges = allocation.directed_edges
    triples = allocation.control_triples

    for control, target in edges:
        fi, fj = freqs[control], freqs[target]
        ai = alpha[control]
        aj = alpha[target]
        if abs(fi - fj) < thresholds.type1_ghz:
            report.collisions.append((1, (int(control), int(target))))
        if abs(fi + ai / 2.0 - fj) < thresholds.type2_ghz:
            report.collisions.append((2, (int(control), int(target))))
        if (
            abs(fi - (fj + aj)) < thresholds.type3_ghz
            or abs(fj - (fi + ai)) < thresholds.type3_ghz
        ):
            report.collisions.append((3, (int(control), int(target))))
        if fj < fi + ai or fi < fj:
            report.collisions.append((4, (int(control), int(target))))

    for control, t_a, t_b in triples:
        fj, fk = freqs[t_a], freqs[t_b]
        fi = freqs[control]
        ai = alpha[control]
        aj = alpha[t_a]
        ak = alpha[t_b]
        if abs(fj - fk) < thresholds.type5_ghz:
            report.collisions.append((5, (int(control), int(t_a), int(t_b))))
        if (
            abs(fj - (fk + ak)) < thresholds.type6_ghz
            or abs(fk - (fj + aj)) < thresholds.type6_ghz
        ):
            report.collisions.append((6, (int(control), int(t_a), int(t_b))))
        if abs(2.0 * fi + ai - (fj + fk)) < thresholds.type7_ghz:
            report.collisions.append((7, (int(control), int(t_a), int(t_b))))

    return report
