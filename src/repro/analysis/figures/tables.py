"""Table I (collision criteria) and Table II (compiled benchmarks)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.circuits.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.compiler.pipeline import transpile
from repro.core.chiplet import ChipletDesign
from repro.core.collisions import find_collisions
from repro.core.frequencies import FrequencySpec, allocation_from_labels
from repro.engine.dispatch import run_calls
from repro.engine.phases import phase

__all__ = [
    "Table1Result",
    "Table2Result",
    "run_table1_collision_criteria",
    "run_table2_compiled_benchmarks",
]


@dataclass
class Table1Result:
    """One demonstration row per collision type."""

    rows: list[dict] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the per-criterion demonstrations."""
        header = ["type", "description", "frequencies (GHz)", "detected"]
        body = [
            [r["type"], r["description"], r["frequencies"], "yes" if r["detected"] else "NO"]
            for r in self.rows
        ]
        return format_table(header, body)


def run_table1_collision_criteria() -> Table1Result:
    """Check each Table I criterion on a minimal hand-crafted device.

    A three-qubit device (control ``Q1`` coupled to targets ``Q0`` and
    ``Q2``) is given frequency assignments that violate exactly one
    criterion at a time; the collision detector must flag each of them.
    (Fully deterministic — no seed parameter needed.)
    """
    spec = FrequencySpec()
    alpha = spec.anharmonicity_ghz
    labels = np.array([0, 2, 1])
    edges = [(1, 0), (1, 2)]
    allocation = allocation_from_labels(labels, edges, spec=spec)
    f0, f1, f2 = spec.frequencies

    cases = [
        (1, "f_i = f_j (near-null neighbours)", np.array([f2 + 0.001, f2, f1])),
        (2, "f_i + a/2 = f_j", np.array([f2 + alpha / 2.0, f2, f1])),
        (3, "f_i = f_j + a", np.array([f2 + alpha + 0.001, f2, f1])),
        (4, "target outside straddling regime", np.array([f2 + 0.05, f2, f1])),
        (5, "f_j = f_k (shared control)", np.array([f0, f2, f0 + 0.001])),
        (6, "f_j = f_k + a (shared control)", np.array([f0, f2, f0 - alpha - 0.001])),
        (7, "2 f_i + a = f_j + f_k", np.array([2 * f2 + alpha - f1 + 0.001, f2, f1])),
    ]
    result = Table1Result()
    for ctype, description, frequencies in cases:
        report = find_collisions(allocation, frequencies)
        detected = ctype in {t for t, _ in report.collisions}
        result.rows.append(
            {
                "type": ctype,
                "description": description,
                "frequencies": "/".join(f"{f:.3f}" for f in frequencies),
                "detected": detected,
            }
        )
    return result


@dataclass
class Table2Result:
    """Gate-count details for compiled benchmarks on 2x2 MCMs."""

    rows: list[dict] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the Table II rows."""
        header = ["chiplet", "dim", "qubits", "benchmark", "1q", "2q", "2q critical"]
        body = [
            [
                r["chiplet_size"],
                f"{r['grid'][0]}x{r['grid'][1]}",
                r["num_qubits"],
                r["benchmark"],
                r["num_one_qubit"],
                r["num_two_qubit"],
                r["two_qubit_critical_path"],
            ]
            for r in self.rows
        ]
        return format_table(header, body)


def compile_benchmark_row(
    chiplet_size: int,
    grid: tuple[int, int],
    benchmark: str,
    utilisation: float = 0.8,
    seed: int = 5,
) -> dict:
    """Compile one benchmark onto one MCM coupling map (engine task unit)."""
    from repro.core.mcm import MCMDesign  # local import to avoid cycles

    design = ChipletDesign.build(chiplet_size)
    mcm = MCMDesign.build(design, *grid)
    coupling = mcm.coupling_map()
    width = max(2, int(round(utilisation * mcm.num_qubits)))
    with phase("circuit"):
        circuit = build_benchmark(benchmark, width, seed=seed)
    transpiled = transpile(circuit, coupling)
    return {
        "chiplet_size": chiplet_size,
        "grid": grid,
        "num_qubits": mcm.num_qubits,
        "benchmark": benchmark,
        "num_one_qubit": transpiled.metrics.num_one_qubit,
        "num_two_qubit": transpiled.metrics.num_two_qubit,
        "two_qubit_critical_path": transpiled.metrics.two_qubit_critical_path,
    }


def run_table2_compiled_benchmarks(
    chiplet_sizes: tuple[int, ...] = (10, 20, 40, 60, 90),
    grid: tuple[int, int] = (2, 2),
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    utilisation: float = 0.8,
    seed: int = 5,
    engine=None,
) -> Table2Result:
    """Regenerate Table II: compiled gate counts for the 2x2 MCM systems.

    Each (chiplet size, benchmark) compilation is independent, so with an
    ``engine`` the table's cells fan out over worker processes.
    """
    kwargs_list = [
        dict(
            chiplet_size=chiplet_size,
            grid=grid,
            benchmark=benchmark,
            utilisation=utilisation,
            seed=seed,
        )
        for chiplet_size in chiplet_sizes
        for benchmark in benchmarks
    ]
    rows = run_calls(
        compile_benchmark_row, kwargs_list, executor=engine, name="table2.compile"
    )
    return Table2Result(rows=rows)
