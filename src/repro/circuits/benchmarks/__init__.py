"""The paper's seven-benchmark suite (Section VII-A).

:data:`BENCHMARKS` registers builder callables of signature
``builder(num_qubits, seed=None)`` under the short names used throughout
the evaluation; the
mapping covers Bernstein-Vazirani, QAOA, GHZ, the ripple-carry adder,
quantum-primacy random circuits, the bit-flip code and TFIM Hamiltonian
simulation.  :func:`build_benchmark` is the convenience entry point.
"""

from __future__ import annotations

from repro.circuits.benchmarks.adder import cuccaro_adder
from repro.circuits.benchmarks.bit_code import bit_code
from repro.circuits.benchmarks.bv import bernstein_vazirani
from repro.circuits.benchmarks.ghz import ghz
from repro.circuits.benchmarks.hamiltonian import tfim_hamiltonian
from repro.circuits.benchmarks.primacy import quantum_primacy
from repro.circuits.benchmarks.qaoa import qaoa_maxcut
from repro.circuits.circuit import QuantumCircuit
from repro.engine.registry import Registry

__all__ = ["BENCHMARKS", "BENCHMARK_NAMES", "build_benchmark"]

BENCHMARKS: Registry = Registry("benchmark")
for _name, _builder in (
    ("bv", lambda n, seed=None: bernstein_vazirani(n)),
    ("qaoa", lambda n, seed=None: qaoa_maxcut(n, seed=0 if seed is None else seed)),
    ("ghz", lambda n, seed=None: ghz(n)),
    ("adder", lambda n, seed=None: cuccaro_adder(n)),
    ("primacy", lambda n, seed=None: quantum_primacy(n, seed=0 if seed is None else seed)),
    ("bitcode", lambda n, seed=None: bit_code(n)),
    ("hamiltonian", lambda n, seed=None: tfim_hamiltonian(n)),
):
    BENCHMARKS.register(_name, _builder)

#: Benchmark names in the order the paper lists them.
BENCHMARK_NAMES = tuple(BENCHMARKS.names())


def build_benchmark(name: str, num_qubits: int, seed: int | None = None) -> QuantumCircuit:
    """Build one of the paper's benchmarks by name.

    Parameters
    ----------
    name:
        One of :data:`BENCHMARK_NAMES`.
    num_qubits:
        Circuit width (the paper sizes benchmarks at 80 % of the device).
    seed:
        Seed for the randomised benchmarks (QAOA, primacy).
    """
    return BENCHMARKS.get(name)(num_qubits, seed=seed)
