"""``repro.obs`` — unified tracing and metrics for compiler, DSE and simulator.

A zero-dependency telemetry subsystem: hierarchical spans
(:mod:`repro.obs.trace`), a typed metrics registry
(:mod:`repro.obs.metrics`), an in-memory sink with a JSONL log format
(:mod:`repro.obs.sinks`) and a Chrome trace-event / Perfetto exporter
(:mod:`repro.obs.export`), plus the report CLI ``python -m repro.obs``.

Telemetry is **off by default**.  The instrumented call sites throughout
the repo go through the module-level helpers here (``obs.span(...)``,
``obs.event(...)``, ``obs.inc(...)``), each of which starts with a single
``_SESSION is None`` check — the entire disabled-mode overhead.  Enabling
is one call::

    import repro.obs as obs

    obs.configure()                      # in-memory collection
    result = explore(space, ...)         # spans/events/metrics accumulate
    obs.export_chrome("trace.json")      # merged Perfetto-loadable trace
    obs.shutdown()

Cross-process stitching: the DSE runner serializes the current span
context (:func:`propagation_context`) into each worker task; workers call
:func:`begin_worker` (idempotent per process) to adopt it, accumulate
events in-memory, and :func:`drain_worker` hands everything back through
the result record, which the parent :func:`ingest`\\ s — so a merged trace
shows every worker's compiler stages under the run that spawned them,
while result records stay byte-identical to an untraced run
(the telemetry keys are popped before records are consumed).

Determinism: telemetry never touches cache keys, budgets or seeds; with an
injected :class:`~repro.obs.trace.FakeClock` the whole event stream is
bit-reproducible in tests.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from .export import (
    span_aggregate,
    telemetry_summary as _summarize_events,
    to_chrome_trace,
    validate_chrome_trace,
)
from .metrics import Counter, Gauge, MetricsRegistry
from .sinks import InMemorySink, read_jsonl, write_jsonl
from .trace import (
    NULL_SPAN,
    Clock,
    FakeClock,
    Span,
    SpanContext,
    SystemClock,
    Tracer,
)

__all__ = [
    "Clock",
    "SystemClock",
    "FakeClock",
    "Span",
    "SpanContext",
    "Tracer",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "InMemorySink",
    "read_jsonl",
    "write_jsonl",
    "to_chrome_trace",
    "validate_chrome_trace",
    "span_aggregate",
    "Session",
    "configure",
    "shutdown",
    "enabled",
    "session",
    "span",
    "event",
    "inc",
    "propagation_context",
    "begin_worker",
    "drain_worker",
    "ingest",
    "emit_timeline",
    "telemetry_summary",
    "export_chrome",
    "export_jsonl",
    "add_cli_arguments",
    "cli_configure",
    "cli_finish",
]

#: Synthetic-pid base for simulator timeline tracks: far above any real
#: Linux pid (pid_max caps at 2^22), so timeline "processes" can never
#: collide with a worker process in the merged trace.
_TIMELINE_PID_BASE = 1 << 24


class Session:
    """One enabled telemetry scope: a tracer, a registry and its sink."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        trace_id: Optional[str] = None,
        role: str = "main",
    ) -> None:
        self.memory = InMemorySink()
        self.tracer = Tracer(self.memory, clock=clock, trace_id=trace_id)
        self.registry = MetricsRegistry()
        self.role = role
        self._timeline_serial = 0
        self.tracer.emit_meta(
            "process_name", self.tracer.pid, f"repro {role} (pid {self.tracer.pid})"
        )

    # --------------------------------------------------------------- events
    def events(self) -> List[Dict[str, Any]]:
        """The events collected so far (open spans are *not* closed)."""
        return list(self.memory.events)

    def drain(self) -> List[Dict[str, Any]]:
        """Close open spans and pop every collected event."""
        self.tracer.finish_open()
        return self.memory.drain()

    def next_timeline_pid(self) -> int:
        self._timeline_serial += 1
        return _TIMELINE_PID_BASE + (self.tracer.pid % 4096) * 64 + (
            self._timeline_serial % 64
        )

    def close(self) -> None:
        self.tracer.finish_open()


_SESSION: Optional[Session] = None
#: Pid that created ``_SESSION`` — a forked child must not inherit the
#: parent's live session (its events would double-report), so helpers
#: treat a foreign-pid session as disabled.
_SESSION_PID: Optional[int] = None


def configure(
    clock: Optional[Clock] = None,
    trace_id: Optional[str] = None,
    role: str = "main",
) -> Session:
    """Enable telemetry (replacing any live session) and return the session."""
    global _SESSION, _SESSION_PID
    if _SESSION is not None and _SESSION_PID == os.getpid():
        _SESSION.close()
    _SESSION = Session(clock=clock, trace_id=trace_id, role=role)
    _SESSION_PID = os.getpid()
    return _SESSION


def shutdown() -> Optional[Session]:
    """Disable telemetry; returns the closed session (events still readable)."""
    global _SESSION, _SESSION_PID
    closing = _SESSION if _SESSION_PID == os.getpid() else None
    if closing is not None:
        closing.close()
    _SESSION = None
    _SESSION_PID = None
    return closing


def session() -> Optional[Session]:
    if _SESSION is not None and _SESSION_PID != os.getpid():
        return None
    return _SESSION


def enabled() -> bool:
    return session() is not None


# ---------------------------------------------------------------------------
# Hot-path helpers (near-zero overhead while disabled)
# ---------------------------------------------------------------------------


def span(name: str, cat: str = "span", **attrs: Any):
    """Open a span on the live session (or a shared no-op while disabled)."""
    live = _SESSION
    if live is None or _SESSION_PID != os.getpid():
        return NULL_SPAN
    return live.tracer.span(name, cat=cat, **attrs)


def event(name: str, cat: str = "event", **attrs: Any) -> None:
    """Emit an instant event on the live session (no-op while disabled)."""
    live = _SESSION
    if live is None or _SESSION_PID != os.getpid():
        return
    live.tracer.event(name, cat=cat, **attrs)


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a session counter (no-op while disabled)."""
    live = _SESSION
    if live is None or _SESSION_PID != os.getpid():
        return
    live.registry.inc(name, amount)


# ---------------------------------------------------------------------------
# Cross-process stitching
# ---------------------------------------------------------------------------


def propagation_context() -> Optional[Dict[str, str]]:
    """Serialized context of the current span, for worker tasks."""
    live = session()
    if live is None:
        return None
    return live.tracer.current_context().to_dict()


def begin_worker(context: Optional[Dict[str, str]]) -> Optional[Session]:
    """Adopt a parent context inside a worker process (idempotent).

    Creates an in-memory session on first use in this process (or reuses
    the live one), then reparents the tracer onto ``context`` so the
    worker's root spans stitch under the orchestrating span.  A ``None``
    context is a no-op returning the current session, so call sites do not
    need to branch on whether tracing is on.
    """
    if context is None:
        return session()
    live = session()
    if live is None:
        live = configure(role="worker")
    live.tracer.adopt(SpanContext.from_dict(context))
    return live


def drain_worker() -> Optional[Dict[str, Any]]:
    """Pop this process's events and metrics for the result-record channel."""
    live = session()
    if live is None:
        return None
    return {"events": live.drain(), "metrics": live.registry.drain()}


def ingest(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a worker's :func:`drain_worker` payload into the live session."""
    live = session()
    if live is None or not payload:
        return
    for item in payload.get("events") or []:
        live.memory.emit(item)
    live.registry.merge(payload.get("metrics") or {})


# ---------------------------------------------------------------------------
# Simulator timelines and summaries
# ---------------------------------------------------------------------------


def emit_timeline(
    timeline: Any,
    label: str = "dataflow-sim",
    node_names: Optional[List[str]] = None,
    cycle_us: float = 1.0,
) -> None:
    """Render a dataflow-simulator timeline as Perfetto tracks.

    ``timeline`` is a :class:`~repro.estimation.dataflow_sim.DataflowTimeline`.
    Each node becomes a named thread track carrying one busy slice per frame
    plus stall slices annotated with their cause (data starvation vs
    back-pressure); each channel becomes a counter track sampling its
    in-flight frame depth.  One simulated cycle maps to ``cycle_us``
    microseconds, offset to the moment of emission so the track lands next
    to the span that produced it on the shared time axis.
    """
    live = session()
    if live is None:
        return
    tracer = live.tracer
    pid = live.next_timeline_pid()
    base = tracer.clock.wall_us()
    tracer.emit_meta("process_name", pid, label)
    names = node_names or []
    for node, busy in enumerate(timeline.node_busy):
        tid = node + 1
        name = names[node] if node < len(names) else f"node{node}"
        tracer.emit_meta("thread_name", pid, name, tid=tid)
        for frame, (start, finish) in enumerate(busy):
            tracer.emit_slice(
                f"frame {frame}",
                ts=base + start * cycle_us,
                dur=(finish - start) * cycle_us,
                pid=pid,
                tid=tid,
                cat="timeline",
                frame=frame,
            )
        for stall_start, stall_end, cause in timeline.node_stalls[node]:
            tracer.emit_slice(
                f"stall:{cause}",
                ts=base + stall_start * cycle_us,
                dur=(stall_end - stall_start) * cycle_us,
                pid=pid,
                tid=tid,
                cat="stall",
                cause=cause,
            )
    for channel, series in enumerate(timeline.channel_depth):
        track = f"{label} ch{channel} depth"
        for ts, depth in series:
            tracer.emit_counter(
                track, ts=base + ts * cycle_us, pid=pid, values={"depth": depth}
            )
        live.registry.gauge(f"sim.channel_depth_hwm.ch{channel}").set_max(
            timeline.channel_hwm[channel]
        )
    event(
        "timeline",
        cat="sim",
        label=label,
        nodes=len(timeline.node_busy),
        channels=len(timeline.channel_depth),
        frames=timeline.frames,
    )


def telemetry_summary() -> Optional[Dict[str, Any]]:
    """Compile/simulate/cache time split of the live session's events."""
    live = session()
    if live is None:
        return None
    live.tracer.finish_open()
    summary = _summarize_events(live.events())
    summary["counters"] = {
        name: payload["value"]
        for name, payload in live.registry.to_dict().items()
        if payload.get("kind") == "counter"
    }
    return summary


def export_chrome(path: str) -> Optional[str]:
    """Write the live session's merged Chrome-trace JSON; returns the path."""
    import json

    live = session()
    if live is None:
        return None
    live.tracer.finish_open()
    trace = to_chrome_trace(live.events(), metrics=live.registry.to_dict())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
    return path


def export_jsonl(path: str) -> Optional[str]:
    """Write the live session's raw event log as JSONL; returns the path.

    A trailing ``{"type": "metrics", ...}`` record carries the registry
    dump, so the report CLI's ``--counters`` works on JSONL logs too.
    """
    live = session()
    if live is None:
        return None
    live.tracer.finish_open()
    events = live.events()
    if len(live.registry):
        events = [*events, {"type": "metrics", "metrics": live.registry.to_dict()}]
    write_jsonl(path, events)
    return path


# ---------------------------------------------------------------------------
# Shared CLI surface (--trace / --trace-out / --metrics-json)
# ---------------------------------------------------------------------------


def add_cli_arguments(parser: Any) -> None:
    """Attach the shared observability flags to an ``argparse`` parser."""
    from .._cli import output_path

    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        action="store_true",
        help="collect spans/events/metrics for this run and print a "
        "telemetry summary (see python -m repro.obs for reports)",
    )
    group.add_argument(
        "--trace-out",
        type=output_path,
        default=None,
        metavar="PATH",
        help="export the collected trace to PATH (implies --trace; "
        "*.jsonl writes the raw structured event log, anything else "
        "writes Perfetto-loadable Chrome trace JSON)",
    )
    group.add_argument(
        "--metrics-json",
        type=output_path,
        default=None,
        metavar="PATH",
        help="dump the metrics registry (counters/gauges) as "
        "JSON to PATH (implies --trace)",
    )


def cli_configure(args: Any) -> bool:
    """Enable telemetry when any observability flag was passed."""
    if not (args.trace or args.trace_out or args.metrics_json):
        return False
    configure()
    return True


def cli_finish(args: Any) -> None:
    """Export per the observability flags, shut down, print the summary."""
    from .._cli import write_json

    live = session()
    if live is None:
        return
    summary = telemetry_summary()
    if args.trace_out:
        if str(args.trace_out).endswith(".jsonl"):
            export_jsonl(args.trace_out)
        else:
            export_chrome(args.trace_out)
        print(f"wrote trace to {args.trace_out}")
    if args.metrics_json:
        write_json(args.metrics_json, live.registry.to_dict(), "metrics to ")
    shutdown()
    print(
        f"telemetry: {summary['spans']} spans, {summary['events']} events; "
        f"compile {summary['compile_seconds']:.2f}s, "
        f"simulate {summary['simulate_seconds']:.3f}s, "
        f"cache probes {summary['cache_probe_seconds']:.3f}s"
    )
