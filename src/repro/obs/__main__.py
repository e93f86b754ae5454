"""Telemetry report CLI.

Reads a trace produced by ``--trace-out`` on either front-door CLI — a raw
JSONL event log or an exported Chrome-trace JSON — and reports on it::

    python -m repro.obs trace.jsonl                  # top spans by wall time
    python -m repro.obs trace.jsonl --top 5
    python -m repro.obs trace.jsonl --counters       # metric/counter dump
    python -m repro.obs trace.jsonl --export-trace out.json
    python -m repro.obs trace.json  --validate       # schema-shape check
    python -m repro.obs sweep1.jsonl sweep2.jsonl    # aggregate across runs
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from .export import (
    span_aggregate,
    telemetry_summary,
    to_chrome_trace,
    validate_chrome_trace,
)
from .sinks import read_jsonl


def _load(
    path: str,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any], Optional[Dict[str, Any]]]:
    """``(events, metrics, chrome_trace)`` from a JSONL log or Chrome JSON.

    Chrome-trace files reconstruct pseudo span/instant events from their
    ``ph:"X"``/``ph:"i"`` records (enough for the span table and summary —
    parent links are gone, so re-export stays JSONL-only) and validate
    directly; JSONL logs return the raw event stream — minus any trailing
    metrics record, which is lifted into the metrics dict — and render to
    Chrome form on demand.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first_line = handle.readline()
    try:
        head = json.loads(first_line)
    except ValueError:
        head = None
    if not isinstance(head, dict) or "traceEvents" in head:
        # Pretty-printed (multi-line) or single-line Chrome trace JSON.
        with open(path, "r", encoding="utf-8") as handle:
            chrome = json.load(handle)
        if not isinstance(chrome, dict) or "traceEvents" not in chrome:
            raise ValueError("neither a Chrome trace nor a JSONL event log")
        reconstructed: List[Dict[str, Any]] = []
        for item in chrome.get("traceEvents", []):
            ph = item.get("ph")
            cat = str(item.get("cat", ""))
            if ph == "X" and cat not in ("timeline", "stall"):
                attrs = dict(item.get("args") or {})
                reconstructed.append(
                    {
                        "type": "span",
                        "name": str(item.get("name", "?")),
                        "cat": cat or "span",
                        "ts": item.get("ts"),
                        "dur": float(item.get("dur", 0.0)),
                        "cpu_us": float(attrs.get("cpu_us", 0.0)),
                    }
                )
            elif ph == "i":
                reconstructed.append(
                    {
                        "type": "instant",
                        "name": str(item.get("name", "?")),
                        "cat": cat or "event",
                        "ts": item.get("ts"),
                    }
                )
        return reconstructed, dict(chrome.get("metrics") or {}), chrome
    events = read_jsonl(path)
    metrics: Dict[str, Any] = {}
    kept: List[Dict[str, Any]] = []
    for item in events:
        if item.get("type") == "metrics":
            metrics.update(item.get("metrics") or {})
        else:
            kept.append(item)
    return kept, metrics, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Report on repro telemetry traces (JSONL or Chrome JSON).",
    )
    parser.add_argument(
        "traces", nargs="+", metavar="TRACE", help="trace file(s) to read"
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="rows in the span table (0 = all; default: 15)",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="dump every counter/gauge/histogram carried by the trace",
    )
    parser.add_argument(
        "--export-trace",
        default=None,
        metavar="PATH",
        help="write the merged events as Chrome trace-event JSON to PATH",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the (exported) Chrome trace; non-zero exit on "
        "any problem",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    events: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    chrome: Optional[Dict[str, Any]] = None
    for path in args.traces:
        try:
            file_events, file_metrics, file_chrome = _load(path)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        events.extend(file_events)
        metrics.update(file_metrics)
        if file_chrome is not None:
            chrome = file_chrome

    if args.validate:
        trace = chrome if chrome is not None else to_chrome_trace(events, metrics)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        count = len(trace.get("traceEvents", []))
        print(f"valid Chrome trace ({count} events)")

    if args.export_trace:
        if not events or chrome is not None:
            print(
                "error: --export-trace needs JSONL event logs as input",
                file=sys.stderr,
            )
            return 2
        with open(args.export_trace, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(events, metrics or None), handle, sort_keys=True)
        print(f"wrote {args.export_trace}")

    if events:
        summary = telemetry_summary(events)
        print(
            f"{summary['spans']} span(s), {summary['events']} event(s), "
            f"{summary['cache_events']} cache probe(s)"
        )
        split = ", ".join(
            f"{name} {seconds * 1e3:.1f}ms"
            for name, seconds in summary["by_category_seconds"].items()
        )
        if split:
            print(f"time by category: {split}")
        rows = span_aggregate(events)
        if args.top:
            rows = rows[: args.top]
        if rows:
            width = max(len(row["name"]) for row in rows)
            print(
                f"\n{'span':<{width}}  {'count':>6}  {'total (ms)':>11}  "
                f"{'mean (ms)':>10}  {'max (ms)':>10}  {'cpu (ms)':>9}"
            )
            for row in rows:
                print(
                    f"{row['name']:<{width}}  {row['count']:>6d}  "
                    f"{row['wall_seconds'] * 1e3:>11.2f}  "
                    f"{row['mean_seconds'] * 1e3:>10.2f}  "
                    f"{row['max_seconds'] * 1e3:>10.2f}  "
                    f"{row['cpu_seconds'] * 1e3:>9.2f}"
                )

    if args.counters and metrics:
        print("\nmetrics:")
        for name in sorted(metrics):
            payload = metrics[name]
            kind = payload.get("kind", "?")
            if kind == "histogram":
                print(
                    f"  {name} [{kind}] count={payload.get('count')} "
                    f"sum={payload.get('sum'):.3f} min={payload.get('min')} "
                    f"max={payload.get('max')}"
                )
            else:
                print(f"  {name} [{kind}] {payload.get('value')}")
    elif args.counters:
        print("\nmetrics: (none carried by the trace)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
