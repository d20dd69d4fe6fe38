"""The historical dict-per-module MCM assembly, kept as a parity reference.

``assemble_mcms`` now works on error rows: each chiplet and module
carries one float array aligned to its edge list, the link errors of a
module come from one vector draw, the in-order placements of every
remaining block are screened in one ``collision_free_mask`` call, and
reshuffle candidates come from one ``Generator.permuted`` call.  The
bodies below are the loop those replaced, kept verbatim apart from
returning plain records: every subset gets its own in-order screen,
every reshuffle its own ``rng.permutation``, every link its own scalar
draw, and every module a freshly keyed ``edge_errors`` dict.
``test_assembly_parity.py`` and ``benchmarks/bench_assembly.py`` compare
the shipped assembly against it; nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.assembly import DEFAULT_MAX_RESHUFFLES, ChipletBin, FabricatedChiplet
from repro.core.collisions import CollisionThresholds, collision_free_mask
from repro.core.mcm import MCMDesign
from repro.device.noise import LinkErrorModel


@dataclass
class ReferenceMCM:
    """One module as the dict-per-module assembly built it."""

    frequencies_ghz: np.ndarray
    edge_errors: dict[tuple[int, int], float]
    num_repaired_chiplets: int = 0
    tuned_qubits: tuple[int, ...] = ()


@dataclass
class ReferenceAssembly:
    """The counters and modules of one reference assembly run."""

    mcms: list[ReferenceMCM] = field(default_factory=list)
    chiplets_used: int = 0
    chiplets_set_aside: int = 0
    reshuffles: int = 0
    repaired_chiplets_used: int = 0

    @property
    def num_mcms(self) -> int:
        return len(self.mcms)


def reference_try_placements(
    subset: list[FabricatedChiplet],
    design: MCMDesign,
    rng: np.random.Generator,
    max_reshuffles: int,
    thresholds: CollisionThresholds | None,
) -> tuple[list[int] | None, int]:
    """In-order screen, then every reshuffle drawn by stacked ``permutation``."""
    num_chips = design.num_chips
    identity = list(range(num_chips))
    frequencies = np.concatenate(
        [np.asarray(subset[i].frequencies_ghz, dtype=float) for i in identity]
    )
    if bool(collision_free_mask(design.allocation, frequencies, thresholds)[0]):
        return identity, 0
    if max_reshuffles <= 0:
        return None, 0

    state = rng.bit_generator.state
    permutations = np.stack(
        [rng.permutation(num_chips) for _ in range(max_reshuffles)]
    )
    chip_frequencies = np.stack([c.frequencies_ghz for c in subset])
    # chip_frequencies[permutations] has shape (reshuffles, chips, qubits);
    # flattening the chip axis reproduces the in-order concatenation row by row.
    candidate_batch = chip_frequencies[permutations].reshape(max_reshuffles, -1)
    mask = collision_free_mask(design.allocation, candidate_batch, thresholds)
    hits = np.flatnonzero(mask)

    attempts = int(hits[0]) + 1 if hits.size else max_reshuffles
    rng.bit_generator.state = state
    for _ in range(attempts):
        rng.permutation(num_chips)

    if hits.size:
        return [int(chip) for chip in permutations[hits[0]]], attempts
    return None, attempts


def reference_assemble_mcms(
    chiplet_bin: ChipletBin,
    design: MCMDesign,
    link_model: LinkErrorModel,
    rng: np.random.Generator,
    max_reshuffles: int = DEFAULT_MAX_RESHUFFLES,
    max_mcms: int | None = None,
    thresholds: CollisionThresholds | None = None,
) -> ReferenceAssembly:
    """Greedy stitching with one keyed ``edge_errors`` dict per module."""
    if design.chiplet.num_qubits != chiplet_bin.design.num_qubits:
        raise ValueError("chiplet bin and MCM design use different chiplet sizes")

    result = ReferenceAssembly()
    pool = list(chiplet_bin.chiplets)
    num_chips = design.num_chips
    qc = design.chiplet.num_qubits

    while len(pool) >= num_chips:
        if max_mcms is not None and result.num_mcms >= max_mcms:
            break
        subset = pool[:num_chips]
        placement, attempts = reference_try_placements(
            subset, design, rng, max_reshuffles, thresholds
        )
        result.reshuffles += attempts
        if placement is None:
            # No collision-free arrangement: set the leading chiplet aside and
            # retry with the next subset from the sorted bin.
            pool.pop(0)
            result.chiplets_set_aside += 1
            continue

        ordered = [subset[i] for i in placement]
        frequencies = np.concatenate(
            [np.asarray(c.frequencies_ghz, dtype=float) for c in ordered]
        )
        edge_errors: dict[tuple[int, int], float] = {}
        tuned_qubits: list[int] = []
        for chip_index, chiplet in enumerate(ordered):
            offset = chip_index * qc
            for (u, v), error in chiplet.edge_errors.items():
                edge_errors[(u + offset, v + offset)] = error
            tuned_qubits.extend(q + offset for q in chiplet.tuned_qubits)
        for link in design.links:
            edge_errors[link.edge] = float(link_model.sample(rng))

        repaired_chiplets = sum(1 for c in ordered if c.repaired)
        result.mcms.append(
            ReferenceMCM(
                frequencies_ghz=frequencies,
                edge_errors=edge_errors,
                num_repaired_chiplets=repaired_chiplets,
                tuned_qubits=tuple(tuned_qubits),
            )
        )
        result.chiplets_used += num_chips
        result.repaired_chiplets_used += repaired_chiplets
        pool = pool[num_chips:]

    return result
