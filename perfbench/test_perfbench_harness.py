"""Tests for the benchmark harness's own arithmetic and plumbing."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import pytest

import benchlib
from benchlib import (
    compare_trees,
    highest_tail_percentile,
    layer_self_times,
    median_quartiles,
    open_loop_accounting,
    percentile,
    self_times,
    uncovered_time,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(ident, start, end, parent=None, layer="x", tid=1):
    return {
        "name": layer,
        "id": ident,
        "parent": parent,
        "ts": start,
        "dur": end - start,
        "tid": tid,
        "attrs": {"layer": layer},
    }


# ---------------------------------------------------------------------- #
# Order statistics
# ---------------------------------------------------------------------- #
def test_median_and_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    q1, q2, q3 = median_quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert median_quartiles([4.2]) == (4.2, 4.2, 4.2)


def test_percentile_interpolates_linearly_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond_it(count, expected):
    assert highest_tail_percentile(count) == expected


# ---------------------------------------------------------------------- #
# Span self time
# ---------------------------------------------------------------------- #
def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0, layer="outer"),
        span("b", 2.0, 5.0, "a", layer="mid"),
        span("c", 3.0, 4.0, "b", layer="inner"),
    ]
    assert self_times(spans) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})
    assert layer_self_times(spans) == pytest.approx({"outer": 7.0, "mid": 2.0, "inner": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("p", 0.0, 10.0),
        span("c1", 2.0, 6.0, "p"),
        span("c2", 4.0, 8.0, "p", tid=2),  # overlaps c1 on another thread
        span("c3", 9.0, 12.0, "p"),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own["c1"] == own["c2"] == pytest.approx(4.0)


def test_self_time_plus_uncovered_accounts_for_the_window():
    spans = [
        span("a", 1.0, 4.0),
        span("b", 2.0, 3.0, "a"),
        span("c", 6.0, 9.0),
        span("d", 0.0, 5.0, tid=2),
    ]
    window = (0.0, 10.0)
    uncovered = uncovered_time(spans, *window, threads=2)
    assert uncovered == pytest.approx((10.0 - 6.0) + (10.0 - 5.0))
    assert sum(self_times(spans).values()) + uncovered == pytest.approx(2 * 10.0)
    # A thread that recorded nothing is idle for the whole window.
    assert uncovered_time(spans[:3], *window, threads=2) == pytest.approx(4.0 + 10.0)
    # Spans outside the window do not count.
    assert uncovered_time(spans, 20.0, 30.0) == pytest.approx(10.0)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert benchlib.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert benchlib.union_length([]) == 0.0


# ---------------------------------------------------------------------- #
# Open loop
# ---------------------------------------------------------------------- #
def test_open_loop_latency_runs_from_due_time_and_counts_failures_to_the_end():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0, 1.5, 2.5, 3.0]  # the generator stalled 0.5 s at t=1
    finished = [0.5, 2.0, 3.0, None]  # the last request failed
    latencies, lateness = open_loop_accounting(due, sent, finished, end=6.0)
    assert latencies == pytest.approx([0.5, 1.0, 1.0, 3.0])
    assert lateness == pytest.approx([0.0, 0.5, 0.5, 0.0])
    assert latencies[3] > max(latencies[:3])


def test_open_loop_lateness_is_never_negative():
    _, lateness = open_loop_accounting([1.0], [0.999], [1.2], end=2.0)
    assert lateness == [0.0]


# ---------------------------------------------------------------------- #
# Reference comparison
# ---------------------------------------------------------------------- #
def test_comparator_accepts_equal_trees_and_relative_tolerance():
    tree = {"a": [1.0, 2, {"b": "x", "c": None}], "d": math.nan, "e": True}
    assert compare_trees(tree, json.loads(json.dumps(tree))) == []
    assert compare_trees(1.0 + 5e-10, 1.0) == []
    assert compare_trees(1e12 + 900.0, 1e12) == []  # 9e-10 relative


def test_comparator_tolerance_edge():
    assert compare_trees(1.0 + 2e-9, 1.0) != []
    assert compare_trees(1e12 + 1100.0, 1e12) != []  # 1.1e-9 relative
    assert compare_trees(1e-300, 0.0) != []
    assert compare_trees(1.0 + 5e-7, 1.0, rel_tol=1e-6) == []


@pytest.mark.parametrize(
    "actual, expected",
    [
        ({"a": 1}, {"b": 1}),
        ([1, 2], [1, 2, 3]),
        ("x", "y"),
        (True, 1),
        (None, 0.0),
        (math.nan, 0.0),
        ([{"a": [0.0, 1.0]}], [{"a": [0.0, 1.5]}]),
    ],
)
def test_comparator_reports_each_kind_of_mismatch(actual, expected):
    assert compare_trees(actual, expected)


def test_perturbed_reference_fails_the_check():
    from workloads import Outcome

    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    tree = reference["service"]["sec5c"]
    perturbed = json.loads(json.dumps(tree))
    perturbed["mcm_devices"] *= 1 + 1e-6
    outcome = Outcome()
    assert outcome.check("same", tree, json.loads(json.dumps(tree)))
    assert not outcome.check("perturbed", tree, perturbed)
    assert outcome.failed == 1 and "mcm_devices" in outcome.problems[0]


# ---------------------------------------------------------------------- #
# Workloads, shims and the metric list
# ---------------------------------------------------------------------- #
def test_service_schedule_is_seeded_with_a_fixed_mix():
    from workloads import service_schedule

    first, again, other = service_schedule(1), service_schedule(1), service_schedule(2)
    assert first == again
    assert [a.at for a in first] != [a.at for a in other]
    assert [(a.kind, a.experiment) for a in first] == [(a.kind, a.experiment) for a in other]
    assert len(first) >= 100
    assert [a.at for a in first] == sorted(a.at for a in first)
    for arrival in first:
        if arrival.original is not None:
            source = first[arrival.original]
            assert source.at <= arrival.at
            assert (source.experiment, source.params) == (arrival.experiment, arrival.params)


def test_shims_trace_without_changing_cache_identity():
    from shims import SpanRecorder

    import repro.analysis.study as study
    import repro.compiler as compiler
    from repro.topology.coupling import CouplingMap
    from repro.engine.cache import code_version_token
    from repro.engine.runner import _fn_cache_safe

    original = study.compute_chiplet_bin
    original_search = compiler.find_long_path
    recorder = SpanRecorder()
    recorder.install()
    try:
        wrapped = study.compute_chiplet_bin
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert _fn_cache_safe(wrapped)
        assert code_version_token(wrapped) == code_version_token(original)
        path = compiler.find_long_path(
            CouplingMap(num_qubits=4, edges=[(0, 1), (1, 2), (2, 3)]), 3
        )
    finally:
        recorder.uninstall()
    assert study.compute_chiplet_bin is original
    assert compiler.find_long_path is original_search
    assert path is not None and len(path) == 3
    assert [s["attrs"]["layer"] for s in recorder.spans] == ["compiler.layout"]
    assert recorder.counts["compiler.layout.search_calls"] == 1
    assert recorder.counts["compiler.layout.search_fails"] == 0


def test_benchmark_json_names_every_metric_the_harness_computes():
    from run import layer_metrics
    from shims import SpanRecorder
    from workloads import Outcome

    outcome = Outcome(
        recorder=SpanRecorder(), windows=[(0.0, 1.0)], walls=[1.0],
        latencies=[[0.1, 0.2]], completed=2, busy_s=1.0,
    )
    per_layer = layer_metrics(outcome, import_s=0.5)
    end_to_end = {**outcome.e2e(), "setup_s": 1.0}
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(end_to_end) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert per_layer["unattributed_s"] == pytest.approx(1.0)
