"""Post-fabrication frequency-repair subsystem.

The paper's only lever against collision-limited yield collapse is
tighter as-fabricated precision (a global sigma shrink).  Real fabs add
a second lever: *repair* — measure each die, then selectively shift
individual qubit frequencies within a bounded tuning range to break the
specific criteria that fired.  This package models that lever as a new
pipeline stage between fabrication and yield evaluation:

:mod:`repro.tuning.models`
    :class:`TunerModel` — bounded max shift, actuation precision,
    optional per-qubit tune-count budget.
:mod:`repro.tuning.graph`
    :class:`CollisionGraph` — maps violated Table I criteria onto the
    qubits/edges involved, with per-qubit incidence so a shift re-checks
    only the criteria it can change.
:mod:`repro.tuning.strategies`
    The :class:`RepairStrategy` protocol and two implementations:
    vectorised greedy local repair and seeded simulated annealing.
:mod:`repro.tuning.repair`
    :class:`TuningOptions` (the object the yield model, sweeps, CLI and
    cache keys thread through) and :func:`repair_batch` (the batch
    driver with the parallel==sequential determinism contract).

See the README's "Post-fabrication repair" section for how to add a
strategy.
"""
