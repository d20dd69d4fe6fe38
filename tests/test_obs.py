"""Tests for the observability layer: tracing, metrics, export, logs.

Covers the observability PR's tentpole contract: span collection is a
strict no-op when no collector is active, span trees keep the same
shape in-process and on the process pool (worker spans are shipped
home and re-parented under the submitting task — the cross-process
parity test runs the same appsweep slice at ``jobs=1`` and ``jobs=2``
and compares ``(name, parent-name)`` multisets), the metrics
registry merges worker-process deltas without double counting, the
Prometheus renderer round-trips through the bundled parser, and both
trace file formats (JSONL and Chrome trace-event JSON) survive a
write/load round trip.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.analysis.registry import EXPERIMENTS, parse_runner_options
from repro.engine.runner import ExecutionEngine
from repro.obs import tracing
from repro.obs.export import (
    chrome_events_to_spans,
    format_summary,
    load_trace,
    spans_to_chrome_events,
    summarize,
    write_trace,
)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)


class TestTracing:
    def test_span_is_noop_without_collector(self):
        assert not tracing.is_tracing()
        assert tracing.current_span_id() is None
        with tracing.span("ignored", foo=1):
            # No collector: nothing is recorded and no id is exposed.
            assert not tracing.is_tracing()
            assert tracing.current_span_id() is None

    def test_collect_spans_records_nesting(self):
        with tracing.collect_spans() as spans:
            with tracing.span("outer"):
                outer_id = tracing.current_span_id()
                with tracing.span("inner", depth=1):
                    assert tracing.current_span_id() != outer_id
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["attrs"] == {"depth": 1}
        assert inner["dur"] >= 0.0
        assert set(outer) >= {"name", "id", "parent", "ts", "pid", "tid", "dur"}

    def test_nested_collectors_shadow(self):
        with tracing.collect_spans() as outer_sink:
            with tracing.span("outer"):
                with tracing.collect_spans() as inner_sink:
                    with tracing.span("shadowed"):
                        pass
        assert [s["name"] for s in outer_sink] == ["outer"]
        assert [s["name"] for s in inner_sink] == ["shadowed"]
        # The inner collector starts a fresh stack: no cross-parenting.
        assert inner_sink[0]["parent"] is None

    def test_tracer_activate_and_adopt(self):
        tracer = tracing.Tracer()
        with tracer.activate():
            assert tracing.active_tracer() is tracer
            with tracing.span("root"):
                root_id = tracing.current_span_id()
                # Simulate worker spans arriving from another process.
                shipped = [
                    {"name": "task:w", "id": "aa", "parent": None,
                     "ts": 0.0, "pid": 999, "tid": 1, "dur": 0.5},
                    {"name": "phase:p", "id": "bb", "parent": "aa",
                     "ts": 0.0, "pid": 999, "tid": 1, "dur": 0.25},
                ]
                tracer.adopt(shipped, parent_id=root_id)
        assert tracing.active_tracer() is None
        spans = tracer.spans
        assert len(tracer) == 3
        by_name = {s["name"]: s for s in spans}
        # Adopt grafts shipped roots under the given parent and leaves
        # already-parented spans alone; every span gets the trace id.
        assert by_name["task:w"]["parent"] == root_id
        assert by_name["phase:p"]["parent"] == "aa"
        assert all(s["trace_id"] == tracer.trace_id for s in spans)


def _span_shape(spans):
    """Path-invariant tree shape: sorted (name, parent-name) pairs."""
    by_id = {s["id"]: s for s in spans}
    return sorted(
        (s["name"], by_id[s["parent"]]["name"] if s["parent"] else None)
        for s in spans
    )


def _run_appsweep(engine):
    spec = EXPERIMENTS.get("appsweep")
    kwargs, _ = parse_runner_options(
        spec, {"seed": 3, "batch_size": 40, "benchmarks": ["bv"]}
    )
    return spec.runner(engine, **kwargs)


class TestCrossBackendParity:
    def _trace_appsweep(self, jobs):
        tracer = tracing.Tracer()
        engine = ExecutionEngine(jobs=jobs, use_cache=False, tracer=tracer)
        _run_appsweep(engine)
        return tracer.spans

    def test_same_span_tree_shape_sequential_vs_processes(self):
        sequential = self._trace_appsweep(jobs=1)
        processes = self._trace_appsweep(jobs=2)
        assert _span_shape(sequential) == _span_shape(processes)
        # The processes run really did cross a process boundary ...
        assert len({s["pid"] for s in processes}) > 1
        # ... and every shipped span was re-parented: one batch root
        # per engine batch, no orphans.
        by_id = {s["id"]: s for s in processes}
        assert all(
            s["parent"] is None or s["parent"] in by_id for s in processes
        )
        roots = [s for s in processes if s["parent"] is None]
        assert {s["name"] for s in roots} == {"engine.batch"}

    def test_tracing_does_not_change_results(self):
        def run(tracer):
            engine = ExecutionEngine(jobs=1, use_cache=False, tracer=tracer)
            result, _ = _run_appsweep(engine)
            return result

        assert run(None) == run(tracing.Tracer())


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        hits = reg.counter("c_total", "help", labels=("kind",))
        hits.inc(kind="a")
        hits.inc(2.5, kind="b")
        depth = reg.gauge("g", "help")
        depth.set(7)
        depth.dec(3)
        hist = reg.histogram("h_seconds", "help", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 1.0},
            {"labels": {"kind": "b"}, "value": 2.5},
        ]
        assert snap["g"]["series"][0]["value"] == 4.0
        hseries = snap["h_seconds"]["series"][0]
        assert hseries["count"] == 3 and hseries["sum"] == pytest.approx(5.55)
        # One overflow observation (5.0) lives outside the bucket ladder;
        # it still shows up in ``count`` and in the +Inf bucket on render.
        assert hseries["bucket_counts"] == [1, 1]

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m", "help")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            reg.gauge("m", "help")

    def test_delta_roundtrip_merges_without_double_count(self):
        worker = MetricsRegistry()
        c = worker.counter("tasks_total", "help", labels=("status",))
        c.inc(3, status="done")
        h = worker.histogram("t_seconds", "help")
        h.observe(0.2)
        marks = worker.checkpoint()
        c.inc(2, status="done")
        c.inc(status="failed")
        h.observe(0.4)
        delta = worker.delta_since(marks)
        assert delta is not None and delta["pid"] > 0

        home = MetricsRegistry()
        home.counter("tasks_total", "help", labels=("status",)).inc(
            10, status="done"
        )
        home.merge_delta(delta)
        snap = home.snapshot()
        done = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["tasks_total"]["series"]
        }
        # Only the post-checkpoint increments land: 10 + 2, not 10 + 5.
        assert done[(("status", "done"),)] == 12.0
        assert done[(("status", "failed"),)] == 1.0
        hist = snap["t_seconds"]["series"][0]
        assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.4)

    def test_delta_since_empty_is_none(self):
        reg = MetricsRegistry()
        reg.counter("m_total", "help").inc(5)
        marks = reg.checkpoint()
        assert reg.delta_since(marks) is None

    def test_prometheus_render_parse_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", labels=("q",)).inc(4, q="xy")
        reg.gauge("g", "a gauge").set(-2.5)
        h = reg.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE h_seconds histogram" in text
        parsed = parse_prometheus(text)
        assert parsed["c_total"][(("q", "xy"),)] == 4.0
        assert parsed["g"][()] == -2.5
        # Buckets are cumulative and +Inf always closes the ladder.
        assert parsed["h_seconds_bucket"][(("le", "0.1"),)] == 1.0
        assert parsed["h_seconds_bucket"][(("le", "1"),)] == 2.0
        assert parsed["h_seconds_bucket"][(("le", "+Inf"),)] == 2.0
        assert parsed["h_seconds_count"][()] == 2.0

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("what even is this line\n")

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestExport:
    def _spans(self):
        with tracing.collect_spans() as spans:
            with tracing.span("outer", answer=42):
                with tracing.span("inner"):
                    pass
        for s in spans:
            s["trace_id"] = "t1"
        return spans

    def test_jsonl_roundtrip(self, tmp_path):
        spans = self._spans()
        path = tmp_path / "trace.jsonl"
        write_trace(spans, str(path))
        loaded = load_trace(str(path))
        assert loaded == spans

    def test_chrome_roundtrip_preserves_schema(self, tmp_path):
        spans = self._spans()
        events = spans_to_chrome_events(spans)
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
            # Chrome timestamps are microseconds.
            assert event["ts"] == pytest.approx(spans[0]["ts"] * 1e6, rel=1e-3) \
                or event["ts"] == pytest.approx(spans[1]["ts"] * 1e6, rel=1e-3)
        back = chrome_events_to_spans(events)
        key = lambda s: s["name"]  # noqa: E731
        for original, restored in zip(sorted(spans, key=key), sorted(back, key=key)):
            assert restored["id"] == original["id"]
            assert restored["parent"] == original["parent"]
            assert restored["trace_id"] == original["trace_id"]
            assert restored["dur"] == pytest.approx(original["dur"], rel=1e-6)

        path = tmp_path / "trace.json"
        write_trace(spans, str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == 2
        assert load_trace(str(path))  # and the loader accepts its own output

    def test_summarize_and_format(self):
        spans = self._spans()
        summary = summarize(spans, top=5)
        assert summary["span_count"] == 2
        assert summary["trace_ids"] == ["t1"]
        assert [entry["name"] for entry in summary["top_spans"]][0] == "outer"
        assert summary["critical_path"][0]["name"] == "outer"
        assert summary["critical_path"][1]["name"] == "inner"
        rendered = format_summary(summary)
        assert "critical path" in rendered and "outer" in rendered

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": []}')
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestLogs:
    def test_configure_is_idempotent(self):
        configure_logging(level="info")
        configure_logging(level="debug")
        root = logging.getLogger("repro")
        ours = [
            h for h in root.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(ours) == 1
        assert root.level == logging.DEBUG
        assert not root.propagate

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="loud")

    def test_json_formatter_emits_parseable_lines(self, capsys):
        import io

        stream = io.StringIO()
        configure_logging(level="info", json_format=True, stream=stream)
        try:
            get_logger("obs.test").info("hello %s", "world")
        finally:
            configure_logging(level="warning", json_format=False)
        line = stream.getvalue().strip()
        record = json.loads(line)
        assert record["message"] == "hello world"
        assert record["logger"] == "repro.obs.test"
        assert record["level"] == "INFO"
        assert isinstance(record["pid"], int)

    def test_env_default_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        configure_logging()
        try:
            assert logging.getLogger("repro").level == logging.ERROR
        finally:
            monkeypatch.delenv("REPRO_LOG_LEVEL")
            configure_logging(level="warning")
