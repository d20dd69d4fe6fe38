"""Zero counters for the benchmark harness; there is no sample bank.

Fabrication draws come straight from each caller's generator
(:meth:`repro.core.fabrication.FabricationModel.sample_batch`).  This
module keeps only the two names ``perfbench/workloads.py`` imports: its
cache reset clears :func:`clear_sample_bank` and checks that
:func:`sample_bank_stats` reads zero, and its traced runs book the hit
and miss counts.  Both go when that harness stops reading them.
"""

from __future__ import annotations

__all__ = ["sample_bank_stats", "clear_sample_bank"]


def sample_bank_stats() -> dict:
    """Always zero: nothing is banked."""
    return {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}


def clear_sample_bank() -> None:
    """Nothing to clear."""
