"""The in-memory event sink and the JSONL structured-log format.

A session collects the plain-dict events minted by
:class:`~repro.obs.trace.Tracer` in an :class:`InMemorySink` and writes
them out at exit.  The JSONL format is one JSON object per line with sorted
keys — grep-able and round-trippable through :func:`read_jsonl` (see the
Perfetto exporter in :mod:`repro.obs.export` for the merged-trace
rendering).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

__all__ = ["InMemorySink", "read_jsonl", "write_jsonl"]


class InMemorySink:
    """Collects events in order; the default sink of a telemetry session."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return everything collected so far."""
        drained = self.events
        self.events = []
        return drained

    def __len__(self) -> int:
        return len(self.events)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL event log back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def write_jsonl(path: str, events: List[Dict[str, Any]]) -> None:
    """Write events as a JSONL log (the inverse of :func:`read_jsonl`)."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            json.dump(event, handle, sort_keys=True)
            handle.write("\n")
