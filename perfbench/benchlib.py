"""Arithmetic of the benchmark harness: order statistics, span self time,
open-loop lateness and the reference comparator.

Standard library only, so the harness's own tests run without the
program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable, Sequence

#: Tail percentiles reported when the sample count allows them.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks
    (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def highest_tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it, or ``None``."""
    best = None
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES - 1e-9:
            best = p
    return best


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _interval(record: dict) -> tuple[float, float]:
    return record["ts"], record["ts"] + record["dur"]


def self_times(spans: Sequence[dict]) -> dict[str, float]:
    """Self seconds per span id: the span's duration minus the part of
    its interval that its child spans cover (children may overlap)."""
    children: dict[str, list[tuple[float, float]]] = {}
    by_id = {record["id"]: record for record in spans}
    for record in spans:
        parent = by_id.get(record.get("parent"))
        if parent is None:
            continue
        start, end = _interval(record)
        p_start, p_end = _interval(parent)
        children.setdefault(parent["id"], []).append(
            (max(start, p_start), min(end, p_end))
        )
    return {
        record["id"]: record["dur"] - union_length(children.get(record["id"], ()))
        for record in spans
    }


def layer_self_times(spans: Sequence[dict]) -> dict[str, float]:
    """Self seconds summed per layer (the span's ``attrs["layer"]``)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for record in spans:
        layer = (record.get("attrs") or {}).get("layer", record["name"])
        totals[layer] = totals.get(layer, 0.0) + own[record["id"]]
    return totals


def uncovered_time(
    spans: Sequence[dict], start: float, end: float, threads: int = 1
) -> float:
    """Thread-seconds of ``[start, end]`` that no span covers, counted on
    ``threads`` threads (or on every thread that recorded spans in the
    window, if there are more)."""
    by_thread: dict[Any, list[tuple[float, float]]] = {}
    for record in spans:
        s, e = _interval(record)
        if e > start and s < end:
            by_thread.setdefault(record.get("tid"), []).append(
                (max(s, start), min(e, end))
            )
    window = end - start
    idle_threads = max(0, threads - len(by_thread))
    return idle_threads * window + sum(
        window - union_length(intervals) for intervals in by_thread.values()
    )


# ---------------------------------------------------------------------- #
# Open loop
# ---------------------------------------------------------------------- #
def open_loop_accounting(
    due: Sequence[float],
    sent: Sequence[float],
    finished: Sequence[float | None],
    end: float,
) -> tuple[list[float], list[float]]:
    """``(latencies, lateness)`` of an open-loop run.

    Latency runs from when a request was *due*, so a generator stall
    shows in every request it delayed.  A request that never finished
    (failed, refused or timed out) is charged until ``end``, the end of
    the measurement, which exceeds every completed latency.  Lateness is
    how far after its due time the generator sent each request.
    """
    latencies = [
        (done if done is not None else end) - due_at
        for due_at, done in zip(due, finished)
    ]
    lateness = [max(0.0, sent_at - due_at) for due_at, sent_at in zip(due, sent)]
    return latencies, lateness


# ---------------------------------------------------------------------- #
# Reference comparison
# ---------------------------------------------------------------------- #
#: Relative tolerance on numeric leaves.
REL_TOL = 1e-9


def _numbers_match(a: float, b: float, rel_tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def compare_trees(
    actual: Any, expected: Any, rel_tol: float = REL_TOL, path: str = "$"
) -> list[str]:
    """Paths where two JSON trees differ; numeric leaves match within
    ``rel_tol`` relative, everything else exactly."""
    numeric = (int, float)
    if isinstance(actual, numeric) and isinstance(expected, numeric):
        if _numbers_match(actual, expected, rel_tol):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(actual, dict) and isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        diffs: list[str] = []
        for key in expected:
            diffs += compare_trees(actual[key], expected[key], rel_tol, f"{path}.{key}")
        return diffs
    if isinstance(actual, list) and isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        diffs = []
        for index, (a, e) in enumerate(zip(actual, expected)):
            diffs += compare_trees(a, e, rel_tol, f"{path}[{index}]")
        return diffs
    if type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]
