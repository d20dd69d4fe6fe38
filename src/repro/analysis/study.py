"""Shared architecture-study state for the Fig. 8 / Fig. 9 / Fig. 10 pipelines.

The three evaluation figures of the paper consume the same expensive
intermediate products: fabricated chiplet bins, assembled MCMs and
monolithic Monte-Carlo runs.  :class:`ArchitectureStudy` computes these
lazily and caches them, so the benchmark harness can regenerate individual
figures without repeating the whole pipeline.

The heavy computations live in module-level functions of picklable
arguments (:func:`compute_chiplet_bin`, :func:`compute_mcm_result`,
:func:`compute_monolithic_result`).  Their random streams are keyed on
``(config.seed, stage, parameters)`` — never on execution order — so the
study can fan them out through an :class:`repro.engine.ExecutionEngine`
(see :meth:`ArchitectureStudy.prefetch`) and still produce results
bit-identical to the lazy sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assembly import (
    AssemblyResult,
    assemble_mcms,
    fabricate_chiplet_bin,
    post_assembly_yield,
    rank_devices,
    ChipletBin,
)
from repro.core.architecture import DEFAULT_TOPOLOGY, get_architecture
from repro.core.chiplet import ChipletDesign, PAPER_CHIPLET_SIZES
from repro.core.fabrication import FabricationModel, SIGMA_LASER_TUNED_GHZ
from repro.core.fidelity import LinkScenario, default_link_scenarios
from repro.core.frequencies import FrequencySpec
from repro.core.mcm import MCMDesign, MAX_SYSTEM_QUBITS
from repro.core.yield_model import YieldResult, simulate_yield_with_devices
from repro.device.device import Device
from repro.device.noise import EmpiricalCXModel
from repro.device.calibration import washington_cx_model
from repro.engine.phases import phase
from repro.topology.coupling import CouplingMap

__all__ = [
    "StudyConfig",
    "MonolithicResult",
    "MCMResult",
    "ArchitectureStudy",
    "compute_chiplet_bin",
    "compute_mcm_result",
    "compute_monolithic_result",
]


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of an architecture study.

    Attributes
    ----------
    sigma_ghz:
        Fabrication precision (the paper uses the laser-tuned 0.014 GHz).
    step_ghz:
        Ideal inter-frequency detuning (0.06 GHz maximises yield).
    chiplet_batch_size:
        Fabrication batch per chiplet size (the paper uses 10 000 dies).
    monolithic_batch_size:
        Fabrication batch per monolithic size (the paper uses 10 000 dies).
    max_qubits:
        Largest system size to evaluate.
    seed:
        Master seed; every cached computation derives its own stream.
    topology:
        Registered topology name every device of the study uses
        (heavy-hex, the paper's architecture, by default).
    """

    sigma_ghz: float = SIGMA_LASER_TUNED_GHZ
    step_ghz: float = 0.06
    chiplet_batch_size: int = 10_000
    monolithic_batch_size: int = 10_000
    max_qubits: int = MAX_SYSTEM_QUBITS
    seed: int = 2022
    chiplet_sizes: tuple[int, ...] = PAPER_CHIPLET_SIZES
    topology: str = DEFAULT_TOPOLOGY


@dataclass
class MonolithicResult:
    """Monte-Carlo outcome for one monolithic device size.

    Attributes
    ----------
    num_qubits:
        Device size.
    collision_free_yield:
        Fraction of the batch with no frequency collision.
    yield_result:
        The full Monte-Carlo :class:`~repro.core.yield_model.YieldResult`
        behind that fraction, carrying the binomial confidence interval
        (``ci_low``/``ci_high``) and the sample count.
    eavg:
        Mean (over surviving devices) of the per-device average two-qubit
        infidelity; ``nan`` when the yield is zero.
    representative_device:
        The device whose average infidelity is the median of the surviving
        population (used for application analysis); ``None`` at zero yield.
    """

    num_qubits: int
    collision_free_yield: float
    eavg: float
    representative_device: Device | None
    yield_result: "YieldResult | None" = None


@dataclass
class MCMResult:
    """Assembly outcome for one MCM configuration.

    Attributes
    ----------
    design:
        The MCM design.
    assembly:
        Raw assembly result (assembled modules, utilisation counters).
    post_assembly_yield:
        Yield including chiplet utilisation and bump-bond success.
    post_assembly_yield_100x:
        Same with the bump-bond failure probability amplified 100x
        (the Fig. 8 sensitivity study).
    on_chip_error_sums, link_error_sums:
        Per assembled module (in assembly order, i.e. best chiplets first):
        the sum of intra-chip coupling errors and the sum of inter-chip
        link errors.  Together with ``num_edges`` they let callers compute
        ``E_avg`` under any link-improvement scenario and over any prefix
        of the assembled modules (the paper's scaled-yield comparison).
    num_edges:
        Number of couplings per module.
    base_link_mean:
        Mean link error of the distribution the modules were assembled
        with (the state-of-the-art scenario).
    best_device:
        Device view of the best assembled module (lowest average error);
        ``None`` when no module could be assembled.
    """

    design: MCMDesign
    assembly: AssemblyResult
    post_assembly_yield: float
    post_assembly_yield_100x: float
    on_chip_error_sums: np.ndarray
    link_error_sums: np.ndarray
    num_edges: int
    base_link_mean: float
    best_device: Device | None

    @property
    def num_mcms(self) -> int:
        """Number of assembled modules."""
        return len(self.assembly.mcms)

    def top_devices(self, count: int) -> list[Device]:
        """Device views of the ``count`` lowest-average-error modules.

        The application-evaluation layer scores this ensemble instead of
        just ``best_device``: one device per configuration is a noisy
        (single order statistic) estimator of architecture quality.
        """
        return rank_devices(self.assembly.mcms, count, self.design.name)

    def eavg(self, link_scale: float = 1.0, count: int | None = None) -> float:
        """Average two-qubit infidelity over (a prefix of) the modules.

        Parameters
        ----------
        link_scale:
            Multiplicative factor applied to every link error (1.0 keeps
            the state-of-the-art scenario; the Fig. 9 improved-link
            scenarios use factors < 1).
        count:
            Number of modules, taken from the front of the assembly order
            (best chiplets first), to average over.  ``None`` uses every
            assembled module.
        """
        if self.num_mcms == 0:
            return float("nan")
        if count is None:
            count = self.num_mcms
        count = max(1, min(count, self.num_mcms))
        totals = (
            self.on_chip_error_sums[:count] + link_scale * self.link_error_sums[:count]
        )
        return float(np.mean(totals / self.num_edges))

    def eavg_for_scenario(self, scenario: LinkScenario, count: int | None = None) -> float:
        """``E_avg`` under a named link scenario (see :func:`eavg`)."""
        return self.eavg(
            link_scale=scenario.link_model.mean / self.base_link_mean, count=count
        )


# ---------------------------------------------------------------------- #
# Engine task units (module-level, picklable, execution-order independent)
# ---------------------------------------------------------------------- #
def _study_rng(config: StudyConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng((config.seed, *key))


def compute_chiplet_bin(
    config: StudyConfig, cx_model: EmpiricalCXModel, size: int
) -> ChipletBin:
    """Fabricate and KGD-characterise the chiplet bin for one size.

    The study's rng keys are sigma-independent tuples, so a sigma sweep
    over :class:`StudyConfig` automatically shares fabrication draws
    through the sample bank (common random numbers along the sigma axis).
    """
    spec = FrequencySpec(step_ghz=config.step_ghz)
    design = ChipletDesign.build(size, spec=spec, topology=config.topology)
    return fabricate_chiplet_bin(
        design,
        FabricationModel(sigma_ghz=config.sigma_ghz),
        cx_model,
        batch_size=config.chiplet_batch_size,
        rng=_study_rng(config, 1, size),
        draw_seed=(config.seed, 1, size),
    )


def compute_mcm_result(
    config: StudyConfig,
    chiplet_bin: ChipletBin,
    chiplet_size: int,
    grid: tuple[int, int],
    base_scenario: LinkScenario | None = None,
    chiplet_design: ChipletDesign | None = None,
) -> MCMResult:
    """Assemble one MCM configuration from an already-fabricated bin.

    ``base_scenario`` supplies the link-error model modules are assembled
    with (and the ``base_link_mean`` that later scenario rescaling divides
    by); the study passes its own ``scenarios[0]`` so callers who
    customise that list keep the old behaviour.  ``chiplet_design``
    avoids repeating the lattice search when the caller already holds the
    design for this size.
    """
    if chiplet_design is None:
        chiplet_design = ChipletDesign.build(
            chiplet_size,
            spec=FrequencySpec(step_ghz=config.step_ghz),
            topology=config.topology,
        )
    design = MCMDesign.build(chiplet_design, *grid)
    if base_scenario is None:
        base_scenario = default_link_scenarios()[0]
    assembly = assemble_mcms(
        chiplet_bin,
        design,
        base_scenario.link_model,
        rng=_study_rng(config, 2, chiplet_size, grid[0], grid[1]),
    )

    # Error rows put the on-chip couplings first and the links last
    # (MCMDesign.edges()).  The last cumsum column is the left-to-right
    # running total, the same float64 value a sequential ``+=`` loop
    # gives; ``.sum()`` would sum pairwise and differ in the last bits.
    on_chip_sums = link_sums = np.zeros(0)
    if assembly.mcms:
        errors = np.stack([mcm.errors for mcm in assembly.mcms])
        split = errors.shape[1] - design.num_links
        on_chip_sums = np.cumsum(errors[:, :split], axis=1)[:, -1]
        link_sums = np.cumsum(errors[:, split:], axis=1)[:, -1]

    best_device = None
    if assembly.mcms:
        best = min(assembly.mcms, key=lambda m: m.average_error)
        best_device = best.to_device()

    return MCMResult(
        design=design,
        assembly=assembly,
        post_assembly_yield=post_assembly_yield(assembly, chiplet_bin.batch_size),
        post_assembly_yield_100x=post_assembly_yield(
            assembly, chiplet_bin.batch_size, failure_multiplier=100.0
        ),
        on_chip_error_sums=on_chip_sums,
        link_error_sums=link_sums,
        num_edges=design.coupling_map().num_edges,
        base_link_mean=base_scenario.link_model.mean,
        best_device=best_device,
    )


def compute_mcm_results(
    config: StudyConfig,
    chiplet_bin: ChipletBin,
    chiplet_size: int,
    grids: tuple[tuple[int, int], ...],
    base_scenario: LinkScenario | None = None,
) -> dict[tuple[int, int], MCMResult]:
    """Assemble every requested grid of one chiplet size in a single task.

    Grouping per size means a (potentially multi-megabyte) chiplet bin is
    pickled to a worker once per size rather than once per grid; each
    grid's random stream is keyed independently, so the results are
    identical to per-grid :func:`compute_mcm_result` calls.
    """
    chiplet_design = ChipletDesign.build(
        chiplet_size,
        spec=FrequencySpec(step_ghz=config.step_ghz),
        topology=config.topology,
    )
    return {
        grid: compute_mcm_result(
            config, chiplet_bin, chiplet_size, grid, base_scenario, chiplet_design
        )
        for grid in grids
    }


def compute_monolithic_result(
    config: StudyConfig, cx_model: EmpiricalCXModel, num_qubits: int
) -> MonolithicResult:
    """Monte-Carlo yield and E_avg for one monolithic device size.

    Like :func:`compute_chiplet_bin`, the sigma-independent rng key means
    sigma sweeps over the study reuse banked fabrication draws.
    """
    rng = _study_rng(config, 3, num_qubits)
    arch = get_architecture(config.topology)
    lattice = arch.lattice(num_qubits)
    allocation = arch.allocate(lattice, spec=arch.spec(step_ghz=config.step_ghz))
    yield_result, survivors = simulate_yield_with_devices(
        allocation,
        FabricationModel(sigma_ghz=config.sigma_ghz),
        batch_size=config.monolithic_batch_size,
        rng=rng,
        draw_seed=(config.seed, 3, num_qubits),
    )

    eavg = float("nan")
    representative = None
    if survivors.shape[0]:
        edges = [(int(u), int(v)) for u, v in lattice.edges]
        edge_u = np.asarray([u for u, _ in edges])
        edge_v = np.asarray([v for _, v in edges])
        detunings = np.abs(survivors[:, edge_u] - survivors[:, edge_v])
        with phase("characterise"):
            errors = cx_model.sample_many(detunings, rng)
        per_device = errors.mean(axis=1)
        eavg = float(per_device.mean())
        median_index = int(np.argsort(per_device)[len(per_device) // 2])
        edge_errors = {
            edges[col]: float(errors[median_index, col]) for col in range(len(edges))
        }
        representative = Device(
            name=f"monolithic-{num_qubits}",
            coupling=CouplingMap.from_lattice(lattice),
            frequencies_ghz=survivors[median_index],
            labels=allocation.labels.copy(),
            edge_errors=edge_errors,
            metadata={"architecture": "monolithic"},
        )

    return MonolithicResult(
        num_qubits=num_qubits,
        collision_free_yield=yield_result.collision_free_yield,
        eavg=eavg,
        representative_device=representative,
        yield_result=yield_result,
    )


class ArchitectureStudy:
    """Lazily-computed, cached architecture comparison state.

    Parameters
    ----------
    config:
        Study parameters (batch sizes, precision, master seed).
    cx_model:
        Empirical CX error model; the Washington-backed synthetic model at
        the config's seed when omitted.
    engine:
        Optional :class:`repro.engine.ExecutionEngine`.  When present,
        :meth:`prefetch` fans missing bins / assemblies / monolithic runs
        out over worker processes; the lazy accessors below stay available
        and bit-identical either way.
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        cx_model: EmpiricalCXModel | None = None,
        engine=None,
    ):
        self.config = config or StudyConfig()
        self.spec = get_architecture(self.config.topology).spec(
            step_ghz=self.config.step_ghz
        )
        self.fabrication = FabricationModel(sigma_ghz=self.config.sigma_ghz)
        self.cx_model = cx_model or washington_cx_model(seed=self.config.seed)
        self.engine = engine
        self.scenarios: list[LinkScenario] = default_link_scenarios()
        self._chiplet_designs: dict[int, ChipletDesign] = {}
        self._chiplet_bins: dict[int, ChipletBin] = {}
        self._mcm_results: dict[tuple[int, int, int], MCMResult] = {}
        self._monolithic_results: dict[int, MonolithicResult] = {}

    # ------------------------------------------------------------------ #
    # Chiplets
    # ------------------------------------------------------------------ #
    def chiplet_design(self, size: int) -> ChipletDesign:
        """The (cached) chiplet design for a given size."""
        if size not in self._chiplet_designs:
            self._chiplet_designs[size] = ChipletDesign.build(
                size, spec=self.spec, topology=self.config.topology
            )
        return self._chiplet_designs[size]

    def chiplet_bin(self, size: int) -> ChipletBin:
        """Fabricate and KGD-characterise the chiplet bin for a size."""
        if size not in self._chiplet_bins:
            self._chiplet_bins[size] = compute_chiplet_bin(
                self.config, self.cx_model, size
            )
        return self._chiplet_bins[size]

    # ------------------------------------------------------------------ #
    # MCMs
    # ------------------------------------------------------------------ #
    def mcm_result(self, chiplet_size: int, grid: tuple[int, int]) -> MCMResult:
        """Assemble (and cache) one MCM configuration."""
        key = (chiplet_size, grid[0], grid[1])
        if key not in self._mcm_results:
            self._mcm_results[key] = compute_mcm_result(
                self.config,
                self.chiplet_bin(chiplet_size),
                chiplet_size,
                (grid[0], grid[1]),
                self.scenarios[0],
                self.chiplet_design(chiplet_size),
            )
        return self._mcm_results[key]

    # ------------------------------------------------------------------ #
    # Monolithic devices
    # ------------------------------------------------------------------ #
    def monolithic_result(self, num_qubits: int) -> MonolithicResult:
        """Monte-Carlo yield and E_avg for one monolithic device size."""
        if num_qubits not in self._monolithic_results:
            self._monolithic_results[num_qubits] = compute_monolithic_result(
                self.config, self.cx_model, num_qubits
            )
        return self._monolithic_results[num_qubits]

    # ------------------------------------------------------------------ #
    # Parallel prefetch
    # ------------------------------------------------------------------ #
    def prefetch(
        self,
        chiplet_sizes: tuple[int, ...] | list[int] = (),
        mcm_grids: list[tuple[int, tuple[int, int]]] | None = None,
        monolithic_sizes: tuple[int, ...] | list[int] = (),
    ) -> None:
        """Compute missing study products through the engine, in parallel.

        Two parallel waves: the chiplet bins first, then — concurrently
        with each other — the monolithic Monte-Carlo runs and the MCM
        assemblies that consume the bins (grouped per chiplet size, so
        each bin crosses the process boundary at most once, and keyed on
        the bin's content so repeat runs hit the on-disk cache).  A no-op
        when the study has no engine or nothing is missing; results land
        in the same in-memory caches the lazy accessors use.
        """
        from repro.engine.task import Task

        if self.engine is None:
            return
        mcm_grids = mcm_grids or []

        need_bins = {
            size
            for size in (*chiplet_sizes, *(size for size, _ in mcm_grids))
            if size not in self._chiplet_bins
        }
        need_monos = [
            size
            for size in dict.fromkeys(monolithic_sizes)
            if size not in self._monolithic_results
        ]
        need_mcms = [
            (size, (grid[0], grid[1]))
            for size, grid in dict.fromkeys(
                (size, (grid[0], grid[1])) for size, grid in mcm_grids
            )
            if (size, grid[0], grid[1]) not in self._mcm_results
        ]
        if not (need_bins or need_monos or need_mcms):
            return

        # Wave 1: every bin the assemblies will need.
        bin_sizes = sorted(need_bins)
        wave1 = [
            Task(
                name="study.chiplet_bin",
                fn=compute_chiplet_bin,
                params=dict(config=self.config, cx_model=self.cx_model, size=size),
            )
            for size in bin_sizes
        ]
        for size, bin_ in zip(bin_sizes, self.engine.run_tasks(wave1)):
            self._chiplet_bins[size] = bin_

        # Wave 2: monolithic Monte-Carlo runs (independent of the bins)
        # together with the assemblies — one task per chiplet size
        # covering all of its grids.  Each bin travels in the params, so
        # the cache key is content-addressed on it and repeat runs skip
        # the Monte-Carlo.
        grids_by_size: dict[int, list[tuple[int, int]]] = {}
        for size, grid in need_mcms:
            grids_by_size.setdefault(size, []).append(grid)
        mcm_sizes = list(grids_by_size)
        wave2 = [
            Task(
                name="study.monolithic",
                fn=compute_monolithic_result,
                params=dict(
                    config=self.config, cx_model=self.cx_model, num_qubits=size
                ),
            )
            for size in need_monos
        ] + [
            Task(
                name="study.mcm",
                fn=compute_mcm_results,
                params=dict(
                    config=self.config,
                    chiplet_bin=self._chiplet_bins[size],
                    chiplet_size=size,
                    grids=tuple(grids_by_size[size]),
                    base_scenario=self.scenarios[0],
                ),
            )
            for size in mcm_sizes
        ]
        results = self.engine.run_tasks(wave2)
        for size, mono in zip(need_monos, results[: len(need_monos)]):
            self._monolithic_results[size] = mono
        for size, by_grid in zip(mcm_sizes, results[len(need_monos) :]):
            for grid, result in by_grid.items():
                self._mcm_results[(size, grid[0], grid[1])] = result
