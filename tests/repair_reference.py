"""The historical scalar repair loops, kept verbatim as parity references.

``GreedyLocalRepair.repair`` screens candidates in batched device-major
passes, and both shipped strategies re-check a candidate's touched
criteria through ``CollisionGraph.local_violations``, a scalar kernel
over plain Python numbers.  The bodies below are the loops those
replaced, with ``self`` renamed ``strategy``.  They keep the numpy
subset re-check (``edge_violations`` + ``triple_violations`` over
``touched(qubit)``), so the oracle stays independent of the kernel.
``test_repair_vectorized.py`` compares outcomes and final generator
states against them; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.tuning.graph import CollisionGraph
from repro.tuning.models import TunerModel
from repro.tuning.strategies import (
    AnnealingRepair,
    GreedyLocalRepair,
    RepairOutcome,
    _noop,
)


def reference_greedy_repair(
    strategy: GreedyLocalRepair,
    graph: CollisionGraph,
    frequencies: np.ndarray,
    tuner: TunerModel,
    rng: np.random.Generator,
    initial_violations: int | None = None,
) -> RepairOutcome:
    """The scalar greedy loop ``GreedyLocalRepair.repair`` must match."""
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

    for _ in range(strategy.max_rounds):
        per_qubit = graph.per_qubit_violations(repaired)
        order = np.argsort(-per_qubit, kind="stable")
        improved = False
        for qubit in order:
            qubit = int(qubit)
            if per_qubit[qubit] == 0:
                break  # descending order: the rest are collision-free
            if tunes[qubit] >= budget:
                continue
            edge_idx, triple_idx = graph.touched(qubit)
            before = graph.edge_violations(
                repaired, edge_idx
            ) + graph.triple_violations(repaired, triple_idx)
            if before == 0:
                continue  # already fixed by an earlier shift this round
            # Aim at the design frequency; the tuner bounds the total
            # intended displacement from the as-fabricated frequency
            # and its actuation noise blurs the landing point.
            intended_total = float(
                np.clip(graph.ideal[qubit] - as_fab[qubit], -reach, reach)
            )
            noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
            previous = repaired[qubit]
            repaired[qubit] = as_fab[qubit] + intended_total + noise
            after = graph.edge_violations(
                repaired, edge_idx
            ) + graph.triple_violations(repaired, triple_idx)
            if after < before:
                tunes[qubit] += 1
                total += after - before
                improved = True
                if total == 0:
                    break
            else:
                repaired[qubit] = previous
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


def reference_anneal_repair(
    strategy: AnnealingRepair,
    graph: CollisionGraph,
    frequencies: np.ndarray,
    tuner: TunerModel,
    rng: np.random.Generator,
    initial_violations: int | None = None,
) -> RepairOutcome:
    """The annealing walk ``AnnealingRepair.repair`` must match."""
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
    temperature = strategy.initial_temperature

    for _ in range(strategy.steps):
        if energy == 0:
            break
        candidates = graph.violating_qubits(work)
        candidates = candidates[tunes[candidates] < budget]
        if candidates.size == 0:
            break
        qubit = int(candidates[rng.integers(candidates.size)])
        shift = rng.uniform(-reach, reach)
        noise = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        edge_idx, triple_idx = graph.touched(qubit)
        before = graph.edge_violations(
            work, edge_idx
        ) + graph.triple_violations(work, triple_idx)
        previous = work[qubit]
        work[qubit] = as_fab[qubit] + shift + noise
        after = graph.edge_violations(
            work, edge_idx
        ) + graph.triple_violations(work, triple_idx)
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
        temperature *= strategy.cooling

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
