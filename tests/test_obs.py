"""Tests for ``repro.obs`` — tracing, metrics, export and instrumentation.

The invariants pinned here:

* telemetry is off by default and its disabled helpers are no-ops;
* with a :class:`FakeClock` the whole event stream is deterministic;
* the Chrome-trace export is schema-valid (required fields per phase,
  consistent timestamps, parent/child nesting) and survives a JSONL
  round-trip;
* cross-process stitching merges worker spans under the parent trace;
* enabling tracing never changes DSE results (byte-identical frontiers);
* observer exceptions in ``Compiler.run`` are non-fatal and surface as
  structured ``observer-error`` diagnostics.
"""

import json
import pickle

import pytest

from repro import obs
from repro.compiler.driver import (
    DEFAULT_PIPELINE,
    Compiler,
    DiagnosticsObserver,
    PipelineObserver,
)
from repro.dse import DesignPoint, DesignSpace, explore
from repro.obs.export import (
    span_aggregate,
    telemetry_summary,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink, read_jsonl, write_jsonl
from repro.obs.trace import NULL_SPAN, FakeClock, SpanContext, Tracer
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    obs.shutdown()
    yield
    obs.shutdown()


def tiny_space():
    space = DesignSpace()
    for kernel in ("atax", "mvt"):
        for factor in (8, 32):
            space.add(
                DesignPoint(
                    workload_kind="kernel",
                    workload=kernel,
                    max_parallel_factor=factor,
                    tile_size=16,
                )
            )
    return space


def _value(registry, name):
    """The value of metric ``name`` in ``registry`` (0 when absent)."""
    return registry.to_dict().get(name, {"value": 0.0})["value"]


# ---------------------------------------------------------------------------
# Disabled mode
# ---------------------------------------------------------------------------


def test_disabled_by_default():
    assert not obs.enabled()
    assert obs.session() is None
    assert obs.span("anything") is NULL_SPAN
    # All helpers are silent no-ops while disabled.
    obs.event("nothing")
    obs.inc("nothing")
    assert obs.propagation_context() is None
    assert obs.drain_worker() is None
    assert obs.telemetry_summary() is None
    assert obs.export_chrome("/nonexistent/should-not-write.json") is None


def test_null_span_is_shared_and_inert():
    with obs.span("a", cat="x", attr=1) as span:
        assert span is NULL_SPAN
        span.set_attr(anything="goes")
    # Re-entrant and reusable.
    with obs.span("b") as again:
        assert again is NULL_SPAN


# ---------------------------------------------------------------------------
# Tracer + FakeClock determinism
# ---------------------------------------------------------------------------


def test_fake_clock_spans_are_deterministic():
    def collect():
        sink = InMemorySink()
        tracer = Tracer(sink, clock=FakeClock(start=1000.0, tick=5.0), trace_id="t1")
        tracer.pid = 42  # pin the pid so two runs compare equal
        with tracer.span("outer", cat="pipeline"):
            with tracer.span("inner", cat="stage", k="v"):
                pass
            tracer.event("mark", cat="event")
        return sink.events

    first, second = collect(), collect()
    assert first == second
    spans = [e for e in first if e["type"] == "span"]
    assert [s["name"] for s in spans] == ["inner", "outer"]
    outer = spans[1]
    inner = spans[0]
    assert inner["parent"] == outer["id"]
    assert inner["ts"] >= outer["ts"]
    assert inner["dur"] > 0


def test_span_stack_self_heals_on_abandoned_spans():
    sink = InMemorySink()
    tracer = Tracer(sink, clock=FakeClock())
    outer = tracer.span("outer")
    tracer.span("abandoned")  # never finished explicitly
    outer.finish()
    names = {e["name"]: e for e in sink.events if e["type"] == "span"}
    assert names["abandoned"]["attrs"].get("unfinished") is True
    assert "unfinished" not in (names["outer"].get("attrs") or {})


def test_span_context_round_trip():
    context = SpanContext(trace_id="abc", span_id="7.3")
    restored = SpanContext.from_dict(context.to_dict())
    assert restored.trace_id == context.trace_id
    assert restored.span_id == context.span_id


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("c", 2.0)
    registry.inc("c")
    registry.gauge("g").set_max(5.0)
    registry.gauge("g").set_max(3.0)  # keeps 5
    dump = registry.to_dict()
    assert dump["c"]["value"] == 3.0
    assert dump["c"]["kind"] == "counter"
    assert dump["g"] == {"kind": "gauge", "value": 5.0}
    # Kind conflicts are programming errors.
    with pytest.raises(TypeError):
        registry.gauge("c")


def test_registry_merge_and_drain():
    a = MetricsRegistry()
    a.inc("n", 1.0)
    a.gauge("g").set_max(2.0)
    b = MetricsRegistry()
    b.inc("n", 5.0)
    b.gauge("g").set_max(7.0)
    a.merge(b.drain())
    assert len(b) == 0
    assert _value(a, "n") == 6.0
    assert _value(a, "g") == 7.0  # gauges merge via max


# ---------------------------------------------------------------------------
# Export: Chrome trace schema and JSONL round-trip
# ---------------------------------------------------------------------------


def _traced_session_events():
    session = obs.configure(clock=FakeClock(start=0.0, tick=10.0))
    with obs.span("compile", cat="pipeline"):
        with obs.span("stage-a", cat="stage"):
            obs.event("diag", cat="pipeline", note="x")
        obs.inc("some.counter", 3)
    session.tracer.finish_open()
    return session.events(), session.registry.to_dict()


def test_chrome_trace_schema_valid():
    events, metrics = _traced_session_events()
    trace = to_chrome_trace(events, metrics=metrics)
    assert validate_chrome_trace(trace) == []
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert "X" in phases and "i" in phases and "M" in phases
    required = {
        "X": ("name", "ts", "dur", "pid", "tid"),
        "i": ("name", "ts", "pid", "tid"),
        "C": ("name", "ts", "pid", "args"),
        "M": ("name", "pid", "args"),
        "s": ("id", "ts", "pid", "tid"),
        "f": ("id", "ts", "pid", "tid"),
    }
    for event in trace["traceEvents"]:
        assert set(required[event["ph"]]) <= set(event), event
    # Complete events carry non-negative durations and nest consistently.
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert all(e["dur"] >= 0 for e in slices)


def test_validate_chrome_trace_catches_problems():
    assert validate_chrome_trace({"traceEvents": "nope"})
    missing = {"traceEvents": [{"ph": "X", "ts": 0.0, "pid": 1}]}  # no tid/dur
    assert validate_chrome_trace(missing)
    # Child slice sticking out past its enclosing parent on one thread.
    bad_nesting = {
        "traceEvents": [
            {
                "ph": "X", "name": "p", "ts": 0.0, "dur": 10.0,
                "pid": 1, "tid": 1, "args": {"span_id": "1.1"},
            },
            {
                "ph": "X", "name": "c", "ts": 5.0, "dur": 50.0,
                "pid": 1, "tid": 1,
                "args": {"span_id": "1.2", "parent_id": "1.1"},
            },
        ]
    }
    assert validate_chrome_trace(bad_nesting)


def test_jsonl_round_trip(tmp_path):
    events, _ = _traced_session_events()
    path = tmp_path / "events.jsonl"
    write_jsonl(path, events)
    assert read_jsonl(path) == events


def test_export_jsonl_carries_metrics(tmp_path):
    obs.configure(clock=FakeClock())
    with obs.span("s", cat="stage"):
        obs.inc("n")
    path = tmp_path / "log.jsonl"
    obs.export_jsonl(str(path))
    items = read_jsonl(path)
    assert items[-1]["type"] == "metrics"
    assert items[-1]["metrics"]["n"]["value"] == 1.0


def test_span_aggregate_and_summary():
    events, _ = _traced_session_events()
    rows = span_aggregate(events)
    assert [row["name"] for row in rows] == ["compile", "stage-a"]
    assert rows[0]["count"] == 1
    summary = telemetry_summary(events)
    assert summary["spans"] == 2
    assert summary["compile_seconds"] > 0


# ---------------------------------------------------------------------------
# Compiler instrumentation
# ---------------------------------------------------------------------------


def test_traced_compile_emits_stage_spans():
    obs.configure(clock=FakeClock())
    compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg")
    compiler.run(workload=get_workload("atax"))
    events = obs.session().events()
    stage_spans = {
        e["name"] for e in events if e["type"] == "span" and e["cat"] == "stage"
    }
    assert "parallelize" in stage_spans
    assert "estimate" in stage_spans
    pipeline = [
        e for e in events if e["type"] == "span" and e["cat"] == "pipeline"
    ]
    assert len(pipeline) == 1 and pipeline[0]["name"] == "compile"
    # The printed spec is a traced run's span attribute.
    assert pipeline[0]["attrs"]["spec"] == DEFAULT_PIPELINE
    # Stage spans nest under the pipeline span.
    pipeline_id = pipeline[0]["id"]
    assert all(
        e["parent"] == pipeline_id
        for e in events
        if e["type"] == "span" and e["cat"] == "stage"
    )


def test_compiler_metrics_replace_stat_dict():
    compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg")
    stats = compiler.run(workload=get_workload("atax")).ir_cache_stats
    assert set(stats) == {
        "prefix_hits",
        "stages_skipped",
        "stages_run",
        "frontend_traces",
        "snapshots_stored",
        "snapshots_refused",
    }
    assert stats["stages_run"] > 0
    assert stats["frontend_traces"] == 1
    # A live session counts the same events as ``ir_cache.*``.
    obs.configure()
    compiler.run(workload=get_workload("atax"))
    assert _value(obs.session().registry, "ir_cache.stages_run") == stats["stages_run"]


class _ExplodingObserver(PipelineObserver):
    def __init__(self, hooks):
        self.hooks = set(hooks)
        self.calls = []

    def _maybe_raise(self, hook):
        self.calls.append(hook)
        if hook in self.hooks:
            raise RuntimeError(f"boom in {hook}")

    def on_pipeline_start(self, compiler, state):
        self._maybe_raise("on_pipeline_start")

    def on_stage_start(self, stage, state):
        self._maybe_raise("on_stage_start")

    def on_stage_end(self, stage, state, seconds):
        self._maybe_raise("on_stage_end")

    def on_diagnostic(self, diagnostic):
        self._maybe_raise("on_diagnostic")

    def on_pipeline_end(self, result):
        self._maybe_raise("on_pipeline_end")


def test_observer_exceptions_are_non_fatal():
    exploding = _ExplodingObserver({"on_stage_start", "on_pipeline_end"})
    healthy = _ExplodingObserver(())
    compiler = Compiler.from_spec(
        DEFAULT_PIPELINE, platform="zu3eg", observers=[exploding, healthy]
    )
    result = compiler.run(workload=get_workload("atax"))
    assert result.module is not None
    # Each raising hook produced one structured observer-error diagnostic,
    # all of them the exploding observer's own RuntimeErrors.
    errors = result.observer_errors
    assert [(d.stage, d.data["observer"], d.data["error"]) for d in errors] == [
        ("observer-error", "_ExplodingObserver", "RuntimeError")
    ] * len(errors)
    assert [d.data["hook"] for d in errors] == ["on_stage_start"] * 9 + [
        "on_pipeline_end"
    ]
    assert errors[-1].message == (
        "_ExplodingObserver.on_pipeline_end raised RuntimeError: "
        "boom in on_pipeline_end"
    )
    # Healthy observers saw every hook and raised nothing.
    assert healthy.calls.count("on_stage_end") == len(result.stage_timings) == 9
    assert healthy.calls[-1] == "on_pipeline_end"


def test_observer_error_reaches_diagnostics_observer():
    exploding = _ExplodingObserver({"on_stage_end"})
    diagnostics = DiagnosticsObserver()
    compiler = Compiler.from_spec(
        DEFAULT_PIPELINE, platform="zu3eg", observers=[exploding, diagnostics]
    )
    compiler.run(workload=get_workload("atax"))
    observer_errors = [
        d for d in diagnostics.diagnostics if d.stage == "observer-error"
    ]
    assert observer_errors
    assert "RuntimeError" in observer_errors[0].message


def test_observer_raising_in_on_diagnostic_does_not_recurse():
    exploding = _ExplodingObserver({"on_diagnostic", "on_stage_end"})
    compiler = Compiler.from_spec(
        DEFAULT_PIPELINE, platform="zu3eg", observers=[exploding]
    )
    result = compiler.run(workload=get_workload("atax"))
    assert result.module is not None
    assert result.observer_errors  # recorded, bounded, non-fatal


def test_raising_stage_closes_its_span_with_error():
    """Regression: a stage that raised left its span to the tracer's
    self-heal (``unfinished=True``, no ``error`` attr)."""
    from repro.compiler import CompilationStage, default_stages

    class Boom(CompilationStage):
        name = "boom"

        def run(self, state):
            raise RuntimeError("boom")

    obs.configure(clock=FakeClock())
    compiler = Compiler([*default_stages()[:2], Boom()], platform="zu3eg")
    with pytest.raises(RuntimeError):
        compiler.run(workload=get_workload("atax"))
    stage_spans = [
        e
        for e in obs.session().events()
        if e["type"] == "span" and e["cat"] == "stage"
    ]
    # Exactly one span per executed stage, the failing one included.
    assert [e["name"] for e in stage_spans] == [s.name for s in compiler.stages]
    assert stage_spans[-1]["attrs"]["error"] == "RuntimeError"
    assert "unfinished" not in stage_spans[-1]["attrs"]
    assert all("error" not in e["attrs"] for e in stage_spans[:-1])


# ---------------------------------------------------------------------------
# Cross-process stitching + DSE determinism
# ---------------------------------------------------------------------------


def test_worker_payload_is_picklable_and_ingestable():
    obs.configure(clock=FakeClock())
    with obs.span("parent", cat="dse"):
        context = obs.propagation_context()
    assert context is not None and context["span"]
    # A worker adopts the context, records, and drains.
    payload = {"events": [], "metrics": {}}
    worker = obs.configure(clock=FakeClock(), role="worker")
    worker.tracer.adopt(SpanContext.from_dict(context))
    with obs.span("dse.point", cat="dse"):
        obs.inc("cache.point.misses")
    payload = obs.drain_worker()
    pickle.loads(pickle.dumps(payload))  # crosses the ProcessPool boundary
    # The parent ingests it.
    parent = obs.configure(clock=FakeClock())
    obs.ingest(payload)
    events = parent.events()
    assert any(e.get("name") == "dse.point" for e in events)
    assert _value(parent.registry, "cache.point.misses") == 1.0


def test_explore_stitches_spans_across_workers(tmp_path):
    obs.configure()
    result = explore(
        tiny_space(),
        workers=2,
        cache_dir=tmp_path / "qor",
    )
    assert len(result.records) == 4
    events = obs.session().events()
    point_spans = [
        e for e in events if e["type"] == "span" and e["name"] == "dse.point"
    ]
    worker_pids = {e["pid"] for e in point_spans}
    assert len(worker_pids) >= 2, "expected spans from 2+ worker processes"
    # Worker roots adopted the parent's explore-span context.
    explore_span = next(
        e for e in events if e["type"] == "span" and e["name"] == "dse.explore"
    )
    assert explore_span["trace"]
    assert all(e["trace"] == explore_span["trace"] for e in point_spans)
    # Result records stay clean: telemetry keys were popped before use.
    assert all("telemetry" not in record for record in result.records)
    # The merged export is schema-valid.
    trace = to_chrome_trace(events, metrics=obs.session().registry.to_dict())
    assert validate_chrome_trace(trace) == []
    # And the result carries the time split.
    assert result.telemetry is not None
    assert result.telemetry["compile_seconds"] > 0


def test_tracing_does_not_change_results(tmp_path):
    space = tiny_space()
    baseline = explore(space, workers=2, cache_dir=tmp_path / "qor-a")
    obs.configure()
    traced = explore(space, workers=2, cache_dir=tmp_path / "qor-b")
    obs.shutdown()

    def canonical(result):
        payload = result.to_dict()
        payload.pop("telemetry", None)
        payload.pop("elapsed_seconds", None)
        payload.pop("config")  # the two runs name different cache dirs

        def scrub(value):
            # Wall-clock fields differ between any two runs, traced or not.
            if isinstance(value, dict):
                return {
                    key: scrub(item)
                    for key, item in value.items()
                    if key not in ("eval_seconds", "compile_seconds")
                }
            if isinstance(value, list):
                return [scrub(item) for item in value]
            return value

        return json.dumps(scrub(payload), sort_keys=True, default=str)

    assert canonical(baseline) == canonical(traced)
    assert baseline.telemetry is None
    assert traced.telemetry is not None


def test_qor_cache_probe_counters(tmp_path):
    obs.configure()
    space = tiny_space()
    explore(space, workers=0, cache_dir=tmp_path / "qor")
    registry = obs.session().registry
    assert _value(registry, "cache.point.misses") > 0
    assert _value(registry, "cache.point.stores") > 0
    explore(space, workers=0, cache_dir=tmp_path / "qor")
    assert _value(registry, "cache.point.hits") > 0


def test_shared_prefix_counters_show_where_a_batch_reused_work():
    obs.configure()
    result = explore(tiny_space(), workers=1, use_cache=False)
    registry = obs.session().registry
    # Each workload's two points share every stage up to ``tile``: the
    # first compiles that prefix and holds the state, the second resumes.
    assert _value(registry, "dse.snapshots_stored") == 2
    assert _value(registry, "dse.prefix_hits") == 2
    assert _value(registry, "dse.stages_skipped") == 2 * 7
    runs = _value(registry, "dse.stages_run")
    assert runs + _value(registry, "dse.stages_skipped") == 4 * len(DEFAULT_PIPELINE.split(","))
    assert _value(registry, "dse.frontend_traces") <= 2
    # A skipped stage opens no span, and records stay as they were.
    events = obs.session().events()
    assert sum(e["type"] == "span" and e["cat"] == "stage" for e in events) == runs
    assert result.prefix_hits == result.stages_skipped == 0
    assert all("ir_cache" not in record for record in result.records)


def test_ir_cache_store_is_not_counted_as_a_probe(tmp_path):
    """``store``'s existence check is not a ``cache.get``: one cold compile
    probes the seven snapshot boundaries, so both stat views read 7 misses."""
    from repro.compiler.ircache import IRSnapshotCache

    obs.configure()
    registry = obs.session().registry
    cache = IRSnapshotCache(tmp_path / "ir")
    Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg").run(
        workload="2mm", ir_cache=cache
    )
    assert cache.stores == 7
    assert cache.misses == 7
    assert _value(registry, "cache.ir.misses") == 7
    Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg").run(
        workload="2mm", ir_cache=cache
    )
    assert _value(registry, "cache.ir.hits") == 1
    assert _value(registry, "cache.ir.misses") == 7


# ---------------------------------------------------------------------------
# Simulator timeline
# ---------------------------------------------------------------------------


def test_dataflow_timeline_tracks():
    from repro.estimation.dataflow_sim import ChannelSpec, dataflow_timeline

    latencies = [10.0, 30.0, 10.0]
    channels = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2)]
    timeline = dataflow_timeline(latencies, channels, frames=8)
    assert len(timeline.node_busy) == 3
    assert all(len(busy) == 8 for busy in timeline.node_busy)
    for busy in timeline.node_busy:
        for (start, finish), (next_start, _) in zip(busy, busy[1:]):
            assert finish > start
            assert next_start >= start
    # The fast consumer downstream of the slow node starves on data.
    causes = {cause for _, _, cause in timeline.node_stalls[2]}
    assert "data" in causes
    # Channel depth stays within capacity and the hwm matches the series.
    for series, hwm in zip(timeline.channel_depth, timeline.channel_hwm):
        depths = [depth for _, depth in series]
        assert max(depths) == hwm
        assert hwm <= 2
        assert all(depth >= 0 for depth in depths)


def test_backpressure_stall_cause():
    from repro.estimation.dataflow_sim import ChannelSpec, dataflow_timeline

    # Fast producer into a slow consumer over a capacity-1 channel: the
    # producer must stall on back-pressure once the channel fills.
    timeline = dataflow_timeline(
        [5.0, 50.0], [ChannelSpec(0, 1, 1)], frames=8
    )
    causes = {cause for _, _, cause in timeline.node_stalls[0]}
    assert "backpressure" in causes


def test_timeline_matches_simulate_dataflow():
    from repro.estimation.dataflow_sim import (
        ChannelSpec,
        dataflow_timeline,
        simulate_dataflow,
    )

    latencies = [7.0, 13.0, 5.0]
    channels = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 4)]
    interval, latency = simulate_dataflow(latencies, channels, frames=16)
    timeline = dataflow_timeline(latencies, channels, frames=16)
    # Same recurrence: frame-0 critical path equals the reported latency.
    frame0_finish = max(busy[0][1] for busy in timeline.node_busy)
    assert frame0_finish == pytest.approx(latency)


def test_simulate_fidelity_emits_timeline(tmp_path):
    obs.configure()
    explore(
        tiny_space(),
        workers=0,
        fidelity="simulate",
        cache_dir=tmp_path / "qor",
    )
    events = obs.session().events()
    timeline_events = [
        e
        for e in events
        if e["type"] == "instant" and e["cat"] == "sim" and e["name"] == "timeline"
    ]
    assert timeline_events, "simulate fidelity must emit occupancy timelines"
    trace = to_chrome_trace(events)
    slices = [e for e in trace["traceEvents"] if e.get("cat") == "timeline"]
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert slices and counters
    assert validate_chrome_trace(trace) == []


# ---------------------------------------------------------------------------
# Report CLI
# ---------------------------------------------------------------------------


def test_report_cli_on_jsonl_and_chrome(tmp_path, capsys):
    from repro.obs.__main__ import main as report_main

    obs.configure(clock=FakeClock())
    with obs.span("compile", cat="pipeline"):
        obs.inc("n")
    jsonl = tmp_path / "log.jsonl"
    chrome = tmp_path / "trace.json"
    obs.export_jsonl(str(jsonl))
    obs.export_chrome(str(chrome))
    obs.shutdown()

    assert report_main([str(jsonl), "--validate", "--counters"]) == 0
    out = capsys.readouterr().out
    assert "valid Chrome trace" in out
    assert "compile" in out
    assert "n [counter] 1.0" in out

    assert report_main([str(chrome), "--validate", "--counters"]) == 0
    out = capsys.readouterr().out
    assert "valid Chrome trace" in out
    assert "compile" in out

    exported = tmp_path / "exported.json"
    assert report_main([str(jsonl), "--export-trace", str(exported)]) == 0
    capsys.readouterr()
    with open(exported, "r", encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) == []


def test_report_cli_rejects_garbage(tmp_path, capsys):
    from repro.obs.__main__ import main as report_main

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert report_main([str(bad)]) == 2
    capsys.readouterr()
