"""Repair strategies: how a tuner's shifts are chosen for one device.

Every strategy implements the :class:`RepairStrategy` protocol::

    strategy.repair(graph, frequencies, tuner, rng) -> RepairOutcome

with the contract that the outcome's frequencies are **never more
collided than the input** (``violations_after <= violations_before``),
and that a no-op tuner (zero shift range or zero budget) returns the
input array bit-identically without consuming any randomness.  Both
guarantees are load-bearing: the first is the repair invariant the
property suite pins, the second is what makes zero-budget tuning
indistinguishable from the untuned pipeline.

Determinism: a strategy's only source of randomness is the ``rng`` it is
handed.  The batch driver (:func:`repro.tuning.repair.repair_batch`)
walks devices in batch order with one generator, and the yield model
derives that generator from each chunk's spawn seed — so a parallel
chunked run repairs literally the same devices with the same shots as a
sequential one.

Two strategies ship:

:class:`GreedyLocalRepair`
    Retune the most-collided qubits toward their design frequency,
    accepting each shot only when the violated criteria among the
    *touched* constraints strictly decrease (everything untouched is
    invariant, so the device total strictly decreases too).  Vectorised:
    the full device is scored in one pass per round and every candidate
    re-check evaluates only the incident edge/triple subsets, through the
    graph's scalar ``local_violations`` kernel.

:class:`AnnealingRepair`
    Seeded simulated annealing over bounded per-qubit shifts with a
    Metropolis acceptance rule and geometric cooling; returns the best
    state visited, which keeps the repair invariant even though the walk
    itself may pass through worse states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel

__all__ = [
    "RepairOutcome",
    "RepairStrategy",
    "GreedyLocalRepair",
    "AnnealingRepair",
    "STRATEGIES",
    "get_strategy",
]


@dataclass(frozen=True)
class RepairOutcome:
    """What one repair attempt did to one device.

    Attributes
    ----------
    frequencies:
        Post-repair qubit frequencies (the input array, untouched, when
        nothing was tuned).
    violations_before, violations_after:
        Violated Table I criteria counts; ``after <= before`` always.
    tuned_qubits:
        Number of distinct qubits that received at least one accepted
        shift.
    total_tunes:
        Accepted shifts across the device (each consumes one unit of the
        per-qubit budget).
    tuned_qubit_indices:
        Sorted indices of the qubits that received at least one accepted
        shift (``len(...) == tuned_qubits``); carried through the
        chiplet bin and MCM assembly into ``Device`` metadata.
    """

    frequencies: np.ndarray
    violations_before: int
    violations_after: int
    tuned_qubits: int
    total_tunes: int
    tuned_qubit_indices: tuple[int, ...] = ()

    @property
    def success(self) -> bool:
        """True when the repaired device is collision-free."""
        return self.violations_after == 0

    @property
    def changed(self) -> bool:
        """True when at least one shift was accepted."""
        return self.total_tunes > 0


def _noop(frequencies: np.ndarray, violations: int) -> RepairOutcome:
    return RepairOutcome(
        frequencies=frequencies,
        violations_before=violations,
        violations_after=violations,
        tuned_qubits=0,
        total_tunes=0,
    )


@runtime_checkable
class RepairStrategy(Protocol):
    """The pluggable repair contract (see the module docstring)."""

    name: str

    def repair(
        self,
        graph: CollisionGraph,
        frequencies: np.ndarray,
        tuner: TunerModel,
        rng: np.random.Generator,
        initial_violations: int | None = None,
    ) -> RepairOutcome:
        """Repair one device; must uphold the never-worse invariant.

        ``initial_violations``, when given, is the device's precomputed
        violated-criteria count (the batch driver screens every collided
        die in one vectorised pass) — strategies must treat it exactly
        like their own ``graph.total_violations(frequencies)``.
        """
        ...


@dataclass(frozen=True)
class GreedyLocalRepair:
    """Deterministic-order greedy repair with local re-checks.

    Each round ranks the collided qubits (most violations first, ties by
    index) and aims one shot per qubit at its design frequency — the
    point the frequency plan certified collision-free.  The *total*
    displacement from the as-fabricated frequency is clipped to the
    tuner's reach (re-tuning a qubit in a later round re-aims from the
    as-fab baseline, it never walks past the bound) and each shot is
    blurred by the actuation noise.  A shot is kept only when the
    violated criteria among the qubit's touched constraints strictly
    decrease; rounds repeat while they help, up to ``max_rounds``.

    The candidate screen is staged: every round scores all qubits'
    touched criteria in one vectorised ``per_qubit_violations`` pass
    (and, for noiseless tuners, batches every candidate's "after" count
    through one ``batch_total_violations`` call), falling back to scalar
    re-checks only for qubits whose criteria an earlier accept in the
    same round has dirtied; those, and every noisy candidate's "after"
    count, go through the scalar kernel
    :meth:`~repro.tuning.graph.CollisionGraph.local_violations`.
    Accepts, landing points and rng consumption are bit-identical to the
    historical scalar loop, kept verbatim as the parity oracle in
    ``tests/repair_reference.py``.

    Attributes
    ----------
    max_rounds:
        Upper bound on repair rounds per device (each round is one pass
        over the currently collided qubits).
    name:
        Registry/CLI identifier (a dataclass field so serialised
        options stay attributable to their strategy).
    """

    max_rounds: int = 3
    name: str = "greedy"

    def repair(
        self,
        graph: CollisionGraph,
        frequencies: np.ndarray,
        tuner: TunerModel,
        rng: np.random.Generator,
        initial_violations: int | None = None,
    ) -> RepairOutcome:
        initial = (
            initial_violations
            if initial_violations is not None
            else graph.total_violations(frequencies)
        )
        if initial == 0 or tuner.is_noop:
            return _noop(frequencies, initial)

        budget = tuner.budget_for(graph.num_qubits)
        as_fab = frequencies.astype(float, copy=True)
        repaired = as_fab.copy()
        tunes = np.zeros(graph.num_qubits, dtype=np.int64)
        total = initial
        sigma = tuner.precision_sigma_ghz
        reach = tuner.max_shift_ghz
        # Deterministic landing points before actuation noise: aim every
        # qubit at its design frequency with the total displacement from
        # the as-fabricated baseline clipped to the tuner's reach.  The
        # scalar reference computes exactly these values one at a time.
        targets = as_fab + np.clip(graph.ideal - as_fab, -reach, reach)

        for _ in range(self.max_rounds):
            # Staged screen: one vectorised pass scores every qubit's
            # touched criteria for the round.  per_qubit[q] equals the
            # scalar loop's per-candidate "before" re-check as long as no
            # accepted shift has touched one of q's criteria yet, so the
            # walk below only falls back to a scalar re-check for qubits
            # dirtied by an earlier accept in the same round.
            per_qubit = graph.per_qubit_violations(repaired)
            order = np.argsort(-per_qubit, kind="stable")
            ranked = order[per_qubit[order] > 0]
            after_screen = None
            if sigma <= 0 and ranked.size:
                # Noiseless actuation: every candidate's landing point is
                # known up front, so the "after" counts batch into one
                # device-major pass too.  Row i scores round-start state
                # with ranked[i] moved to its target; subtracting the
                # round-start total isolates the touched-criteria delta
                # (untouched criteria cancel), which is what the scalar
                # reference measures.
                candidates = np.repeat(repaired[np.newaxis, :], ranked.size, axis=0)
                candidates[np.arange(ranked.size), ranked] = targets[ranked]
                after_screen = (
                    graph.batch_total_violations(candidates) - total + per_qubit[ranked]
                )
            improved = False
            dirty = np.zeros(graph.num_qubits, dtype=bool)
            for position, qubit in enumerate(ranked):
                qubit = int(qubit)
                if tunes[qubit] >= budget:
                    continue
                is_dirty = bool(dirty[qubit])
                if is_dirty:
                    before = graph.local_violations(repaired, qubit)
                else:
                    before = int(per_qubit[qubit])
                if before == 0:
                    continue  # already fixed by an earlier shift this round
                # The actuation-noise draw must stay a per-candidate
                # scalar in exactly this position: the reference draws
                # conditioned on the evolving before > 0 check, and the
                # rng stream is pinned bit-identical by the parity suite.
                noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
                if after_screen is not None and not is_dirty:
                    after = int(after_screen[position])
                    accepted = after < before
                    if accepted:
                        repaired[qubit] = targets[qubit]
                else:
                    previous = repaired[qubit]
                    repaired[qubit] = targets[qubit] + noise
                    after = graph.local_violations(repaired, qubit)
                    accepted = after < before
                    if not accepted:
                        repaired[qubit] = previous
                if accepted:
                    tunes[qubit] += 1
                    total += after - before
                    improved = True
                    dirty[graph.constraint_neighbors(qubit)] = True
                    if total == 0:
                        break
            if total == 0 or not improved:
                break

        if not tunes.any():
            return _noop(frequencies, initial)
        return RepairOutcome(
            frequencies=repaired,
            violations_before=initial,
            violations_after=graph.total_violations(repaired),
            tuned_qubits=int((tunes > 0).sum()),
            total_tunes=int(tunes.sum()),
            tuned_qubit_indices=tuple(np.flatnonzero(tunes > 0).tolist()),
        )


@dataclass(frozen=True)
class AnnealingRepair:
    """Seeded simulated annealing over bounded per-qubit shifts.

    Each step picks a uniformly random collided qubit with remaining
    budget, proposes a fresh total shift uniform in the tuner's reach
    (so the cumulative displacement from the as-fabricated frequency
    stays bounded by construction), blurs it with the actuation noise,
    and accepts by the Metropolis rule on the violated-criteria delta of
    the touched constraints.  The temperature cools geometrically, and
    the best state ever visited is returned — accepting uphill moves
    during the walk can escape local minima the greedy strategy gets
    stuck in, without ever handing back a device worse than its input.

    Attributes
    ----------
    steps:
        Proposal budget per device.
    initial_temperature:
        Metropolis temperature at step 0, in violated-criteria units.
    cooling:
        Geometric cooling factor applied after every step.
    name:
        Registry/CLI identifier (a dataclass field, see
        :class:`GreedyLocalRepair`).
    """

    steps: int = 300
    initial_temperature: float = 1.5
    cooling: float = 0.985
    name: str = "anneal"

    def repair(
        self,
        graph: CollisionGraph,
        frequencies: np.ndarray,
        tuner: TunerModel,
        rng: np.random.Generator,
        initial_violations: int | None = None,
    ) -> RepairOutcome:
        initial = (
            initial_violations
            if initial_violations is not None
            else graph.total_violations(frequencies)
        )
        if initial == 0 or tuner.is_noop:
            return _noop(frequencies, initial)

        budget = tuner.budget_for(graph.num_qubits)
        as_fab = frequencies.astype(float, copy=True)
        work = as_fab.copy()
        tunes = np.zeros(graph.num_qubits, dtype=np.int64)
        energy = initial
        best = None
        best_energy = initial
        best_tunes = None
        sigma = tuner.precision_sigma_ghz
        reach = tuner.max_shift_ghz
        temperature = self.initial_temperature

        for _ in range(self.steps):
            if energy == 0:
                break
            candidates = graph.violating_qubits(work)
            candidates = candidates[tunes[candidates] < budget]
            if candidates.size == 0:
                break
            qubit = int(candidates[rng.integers(candidates.size)])
            shift = rng.uniform(-reach, reach)
            noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
            before = graph.local_violations(work, qubit)
            previous = work[qubit]
            work[qubit] = as_fab[qubit] + shift + noise
            after = graph.local_violations(work, qubit)
            delta = after - before
            if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
                tunes[qubit] += 1
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best = work.copy()
                    best_tunes = tunes.copy()
            else:
                work[qubit] = previous
            temperature *= self.cooling

        if best is None:
            return _noop(frequencies, initial)
        return RepairOutcome(
            frequencies=best,
            violations_before=initial,
            violations_after=int(best_energy),
            tuned_qubits=int((best_tunes > 0).sum()),
            total_tunes=int(best_tunes.sum()),
            tuned_qubit_indices=tuple(np.flatnonzero(best_tunes > 0).tolist()),
        )


#: Registered strategies by CLI name.
STRATEGIES: dict[str, type] = {
    GreedyLocalRepair.name: GreedyLocalRepair,
    AnnealingRepair.name: AnnealingRepair,
}


def get_strategy(name: str) -> RepairStrategy:
    """Instantiate a registered strategy by name (defaults applied)."""
    if name not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise KeyError(f"unknown repair strategy {name!r}; known: {known}")
    return STRATEGIES[name]()
