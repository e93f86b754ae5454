"""Hierarchical tracing: spans, span contexts and the :class:`Tracer`.

A *span* is a named interval with wall/CPU time, free-form attributes and a
parent link; spans nest through an explicit per-tracer stack, so a tracer
used as ``with tracer.span("outer"): with tracer.span("inner"): ...``
records ``inner`` as a child of ``outer`` without any caller bookkeeping.

Span identity is cross-process capable by construction: every span id is
``<pid>.<serial>``, so ids minted in different worker processes never
collide, and a :class:`SpanContext` serialized into a worker lets the
worker's root spans parent onto a span of the orchestrating process — the
merged event stream renders as one tree (see :mod:`repro.obs.export`).

Time comes from an injectable :class:`Clock`.  The default
:class:`SystemClock` uses ``time.time_ns()`` for wall time (epoch-anchored,
so timestamps from different processes land on one axis) and
``time.process_time()`` for CPU time; tests inject :class:`FakeClock` for
bit-deterministic traces.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Clock",
    "SystemClock",
    "FakeClock",
    "SpanContext",
    "Span",
    "Tracer",
    "NULL_SPAN",
]


class Clock:
    """Time source for a tracer; both readings are in microseconds."""

    def wall_us(self) -> float:
        raise NotImplementedError

    def cpu_us(self) -> float:
        raise NotImplementedError


class SystemClock(Clock):
    """Epoch-anchored wall clock + per-process CPU clock."""

    def wall_us(self) -> float:
        return time.time_ns() / 1000.0

    def cpu_us(self) -> float:
        return time.process_time() * 1e6


class FakeClock(Clock):
    """Deterministic manual clock for tests.

    Every wall reading advances the clock by ``tick`` microseconds, so
    consecutive timestamps are strictly increasing; CPU readings track the
    same counter without advancing it.
    """

    def __init__(self, start: float = 0.0, tick: float = 1.0) -> None:
        self.now = float(start)
        self.tick = float(tick)

    def wall_us(self) -> float:
        reading = self.now
        self.now += self.tick
        return reading

    def cpu_us(self) -> float:
        return self.now


class SpanContext:
    """Serializable (trace id, span id) pair for cross-process stitching."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> Dict[str, str]:
        return {"trace": self.trace_id, "span": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "SpanContext":
        return cls(str(data["trace"]), str(data["span"]))

    def __repr__(self) -> str:
        return f"SpanContext(trace={self.trace_id!r}, span={self.span_id!r})"


class Span:
    """One named interval; close with ``with`` or :meth:`finish`."""

    __slots__ = (
        "tracer",
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "pid",
        "start_us",
        "end_us",
        "cpu_start_us",
        "cpu_end_us",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.trace_id = tracer.trace_id
        self.span_id = tracer.next_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.pid = tracer.pid
        self.start_us = tracer.clock.wall_us()
        self.end_us: Optional[float] = None
        self.cpu_start_us = tracer.clock.cpu_us()
        self.cpu_end_us: Optional[float] = None

    def set_attr(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self) -> None:
        self.tracer.finish_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False

    def to_event(self) -> Dict[str, Any]:
        end = self.end_us if self.end_us is not None else self.start_us
        cpu_end = (
            self.cpu_end_us if self.cpu_end_us is not None else self.cpu_start_us
        )
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "trace": self.trace_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": self.start_us,
            "dur": max(end - self.start_us, 0.0),
            "cpu_us": max(cpu_end - self.cpu_start_us, 0.0),
            "pid": self.pid,
            "tid": 0,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def set_attr(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared no-op span: ``obs.span(...)`` hands this out when disabled, so the
#: enabled check is the only per-call-site overhead.
NULL_SPAN = _NullSpan()


class Tracer:
    """Mints spans and instant events into a sink.

    ``sink`` is anything with an ``emit(event: dict)`` method (see
    :mod:`repro.obs.sinks`).  The tracer keeps an explicit span stack: new
    spans parent onto the innermost open span, falling back to the adopted
    cross-process context (if any).  Finishing a span pops every span opened
    above it too (closed at the same instant) — a stage that raised halfway
    through cannot poison the parentage of later spans.
    """

    def __init__(
        self,
        sink: Any,
        clock: Optional[Clock] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.sink = sink
        self.clock = clock if clock is not None else SystemClock()
        self.pid = os.getpid()
        self.trace_id = (
            trace_id
            if trace_id is not None
            else f"t{self.pid:x}-{time.time_ns() & 0xFFFFFFFF:08x}"
        )
        self._serial = 0
        self._stack: List[Span] = []
        self._adopted_parent: Optional[str] = None

    # ------------------------------------------------------------------ ids
    def next_span_id(self) -> str:
        self._serial += 1
        return f"{self.pid}.{self._serial}"

    # ------------------------------------------------------------- contexts
    def adopt(self, context: SpanContext) -> None:
        """Parent this tracer's root spans onto a foreign span."""
        self.trace_id = context.trace_id
        self._adopted_parent = context.span_id or None

    def current_context(self) -> SpanContext:
        """Context naming the innermost open span (for worker hand-off)."""
        if self._stack:
            return SpanContext(self.trace_id, self._stack[-1].span_id)
        return SpanContext(self.trace_id, self._adopted_parent or "")

    def current_parent_id(self) -> Optional[str]:
        if self._stack:
            return self._stack[-1].span_id
        return self._adopted_parent

    # ---------------------------------------------------------------- spans
    def span(self, name: str, cat: str = "span", **attrs: Any) -> Span:
        opened = Span(self, name, cat, self.current_parent_id(), dict(attrs))
        self._stack.append(opened)
        return opened

    def finish_span(self, span: Span) -> None:
        if span.end_us is not None:
            return
        end_wall = self.clock.wall_us()
        end_cpu = self.clock.cpu_us()
        # Pop through anything left open above this span (abandoned by an
        # exception) so the stack self-heals; those spans close here too.
        while self._stack:
            top = self._stack.pop()
            top.end_us = end_wall
            top.cpu_end_us = end_cpu
            if top is not span:
                top.attrs.setdefault("unfinished", True)
            self.sink.emit(top.to_event())
            if top is span:
                return
        # Span was not on the stack (already healed away): emit as-is.
        span.end_us = end_wall
        span.cpu_end_us = end_cpu
        self.sink.emit(span.to_event())

    def finish_open(self) -> None:
        """Close every span still open (used when draining a session)."""
        while self._stack:
            self.finish_span(self._stack[-1])

    # --------------------------------------------------------------- events
    def event(self, name: str, cat: str = "event", **attrs: Any) -> None:
        """Emit an instant (zero-duration) event under the current span."""
        self.sink.emit(
            {
                "type": "instant",
                "name": name,
                "cat": cat,
                "trace": self.trace_id,
                "parent": self.current_parent_id(),
                "ts": self.clock.wall_us(),
                "pid": self.pid,
                "tid": 0,
                "attrs": dict(attrs),
            }
        )

    def emit_slice(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        cat: str = "timeline",
        **attrs: Any,
    ) -> None:
        """Emit a pre-positioned track slice (used by simulator timelines)."""
        self.sink.emit(
            {
                "type": "slice",
                "name": name,
                "cat": cat,
                "trace": self.trace_id,
                "ts": float(ts),
                "dur": max(float(dur), 0.0),
                "pid": pid,
                "tid": tid,
                "attrs": dict(attrs),
            }
        )

    def emit_counter(
        self, name: str, ts: float, pid: int, values: Dict[str, float]
    ) -> None:
        """Emit one sample of a Chrome counter track."""
        self.sink.emit(
            {
                "type": "counter",
                "name": name,
                "trace": self.trace_id,
                "ts": float(ts),
                "pid": pid,
                "tid": 0,
                "values": {k: float(v) for k, v in values.items()},
            }
        )

    def emit_meta(
        self, kind: str, pid: int, value: str, tid: Optional[int] = None
    ) -> None:
        """Name a process (``kind="process_name"``) or thread track."""
        event: Dict[str, Any] = {
            "type": "meta",
            "kind": kind,
            "pid": pid,
            "value": value,
        }
        if tid is not None:
            event["tid"] = tid
        self.sink.emit(event)
