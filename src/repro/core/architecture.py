"""The architecture registry: topology name -> (lattice factory, plan).

This is the seam that makes the pipeline topology-pluggable.  An
:class:`Architecture` pairs a lattice factory (an exact-qubit-count
builder satisfying :class:`repro.topology.base.Lattice`) with the
:class:`repro.core.frequencies.FrequencyPlan` that keeps ideal devices
of that topology collision-free.  Every layer that used to hardwire
heavy-hex — chiplet design, the yield Monte-Carlo, MCM assembly inputs,
calibration synthesis, the analysis drivers and the CLI — now resolves
its topology through :func:`get_architecture`, with ``"heavy-hex"`` as
the default, so the paper's numbers are bit-for-bit unchanged.

Adding a topology is one registration::

    ARCHITECTURES.register("kagome", Architecture(
        name="kagome",
        description="corner-sharing triangles, degree 4",
        lattice_factory=kagome_by_qubit_count,
        plan=KagomeSevenFrequencyPlan(),
        max_degree=4,
    ))

after which ``python -m repro run fig4 --topology kagome``, chiplet /
MCM construction, the conformance test suite and the engine's cache
keys all pick it up without further changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.frequencies import (
    FrequencyAllocation,
    FrequencyPlan,
    FrequencySpec,
    HeavyHexThreeFrequencyPlan,
    RingThreeFrequencyPlan,
    SquareFiveFrequencyPlan,
)
from repro.engine.cache import BoundedLRU
from repro.engine.phases import phase
from repro.engine.registry import Registry
from repro.topology.base import Lattice
from repro.topology.heavy_hex import heavy_hex_by_qubit_count
from repro.topology.ring import ring_by_qubit_count
from repro.topology.square import square_by_qubit_count

__all__ = [
    "Architecture",
    "ARCHITECTURES",
    "ARCHITECTURE_CACHE_MAXSIZE",
    "DEFAULT_TOPOLOGY",
    "clear_architecture_caches",
    "get_architecture",
]

#: The paper's topology; every entry point defaults to it.
DEFAULT_TOPOLOGY = "heavy-hex"

#: Distinct memoised lattices / allocations kept alive at once.  Sweeps
#: revisit a handful of (topology, qubit-count) points thousands of
#: times across sweep points; 32 of each bounds memory while covering
#: every sweep in the repo with room to spare.
ARCHITECTURE_CACHE_MAXSIZE = 32

# Module-level memos for lattice builds and frequency allocations.  Both
# are deterministic pure functions — a lattice of (factory, qubit count,
# name) and an allocation of (plan, spec, lattice content) — and both
# results are treated as immutable by every consumer, so sweep points
# that would rebuild identical ideal-frequency allocations per task
# share one instance.  Lattice keys hold the factory *object* and
# allocation keys the frozen plan dataclass, so the keys themselves pin
# the referenced callables alive (no id-reuse hazard), and allocation
# keys fingerprint the lattice by content (``Lattice.fingerprint()``, a
# digest of name, sites and edges computed once per lattice), so
# pickled lattice copies inside engine workers still hit.  Both count
# into one registry counter.  Lookups book to the ``design`` phase,
# hits included, so a run's phases (and its trace's span tree) do not
# depend on what an earlier run left in the memo.
_LATTICES, _ALLOCATIONS = (
    BoundedLRU(
        ARCHITECTURE_CACHE_MAXSIZE,
        "repro_architecture_cache_events_total",
        "Lattice and frequency-allocation memo traffic by outcome "
        "(hit, miss, eviction)",
    )
    for _ in range(2)
)


def clear_architecture_caches() -> None:
    """Drop every memoised lattice and allocation (test isolation hook)."""
    _LATTICES.clear()
    _ALLOCATIONS.clear()


@dataclass(frozen=True)
class Architecture:
    """One registered topology scenario.

    Attributes
    ----------
    name:
        Registry key (``"heavy-hex"``, ``"square"``, ``"ring"``, ...).
    description:
        One-line summary shown by ``python -m repro list``.
    lattice_factory:
        ``factory(num_qubits, name=None) -> Lattice`` building a
        connected lattice with an exact qubit count.
    plan:
        The :class:`FrequencyPlan` keeping ideal devices collision-free.
    max_degree:
        Upper bound on qubit degree the factory guarantees (a
        conformance-suite invariant, and a quick density indicator).
    """

    name: str
    description: str
    lattice_factory: Callable[..., Lattice] = field(compare=False)
    plan: FrequencyPlan = field(compare=False)
    max_degree: int = 3

    def lattice(self, num_qubits: int, name: str | None = None) -> Lattice:
        """Build (or reuse) a lattice of this topology with ``num_qubits``.

        Factories are deterministic, so repeated builds of the same
        (topology, qubit count, name) return one shared, never-mutated
        instance from the module memo.
        """
        with phase("design"):
            return _LATTICES.get_or_build(
                (self.lattice_factory, num_qubits, name),
                lambda: self.lattice_factory(num_qubits, name=name),
            )

    def spec(self, step_ghz: float | None = None) -> FrequencySpec:
        """A :class:`FrequencySpec` sized for this architecture's plan."""
        return self.plan.spec(step_ghz=step_ghz)

    def allocate(
        self, lattice: Lattice, spec: FrequencySpec | None = None
    ) -> FrequencyAllocation:
        """Label a lattice of this topology under its frequency plan.

        Allocations are memoised on (plan, spec, lattice content) —
        plans are pure functions of the lattice's sites/edges, and
        every consumer treats :class:`FrequencyAllocation` arrays as
        read-only — so yield points that would re-allocate an
        identical lattice per task share one instance.  Keying
        by content (the lattice's cached ``fingerprint()``, not its
        identity) lets pickled lattice copies in engine workers hit too.
        """
        with phase("design"):
            return _ALLOCATIONS.get_or_build(
                (self.plan, spec, lattice.fingerprint()),
                lambda: self.plan.allocate(lattice, spec=spec),
            )


ARCHITECTURES: Registry[Architecture] = Registry("topology")


def get_architecture(name: str | None = None) -> Architecture:
    """Resolve a topology name (``None`` -> the heavy-hex default)."""
    return ARCHITECTURES.get(name or DEFAULT_TOPOLOGY)


for _architecture in (
    Architecture(
        name=DEFAULT_TOPOLOGY,
        description="heavy-hexagon lattice, 3-frequency plan (the paper's design)",
        lattice_factory=heavy_hex_by_qubit_count,
        plan=HeavyHexThreeFrequencyPlan(),
        max_degree=3,
    ),
    Architecture(
        name="square",
        description="square grid, 5-frequency distance-2 colouring (degree 4)",
        lattice_factory=square_by_qubit_count,
        plan=SquareFiveFrequencyPlan(),
        max_degree=4,
    ),
    Architecture(
        name="ring",
        description="linear chain, period-3 3-frequency plan (degree 2)",
        lattice_factory=ring_by_qubit_count,
        plan=RingThreeFrequencyPlan(),
        max_degree=2,
    ),
):
    ARCHITECTURES.register(_architecture.name, _architecture)
