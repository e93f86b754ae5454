"""The benchmark's own in-memory trace: spans, counters and self times.

Spans are recorded by the benchmark's files around calls into each layer
(``repro.obs`` stays off); nothing here imports ``repro``.  A span is
``(name, start, end, parent, round)``; a layer's *self* time is its span's
duration minus the part of that interval its direct children cover, so the
self times of a subtree add up to its root's duration.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Span list plus per-round counters for one traced run."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, round id]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Round id stamped on new spans and counters.
        self.round = 0
        self._counts: Dict[int, Dict[str, float]] = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` (and anything left open under it)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                break
        return now - self.spans[index][1]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1.0) -> None:
        bucket = self._counts.setdefault(self.round, {})
        bucket[name] = bucket.get(name, 0.0) + amount

    # ------------------------------------------------------------ reductions
    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """``round -> span name -> summed self seconds``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        rounds: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, _, round_id) in enumerate(self.spans):
            if end is None:
                continue
            bucket = rounds.setdefault(round_id, {})
            bucket[name] = bucket.get(name, 0.0) + (end - start) - covered[index]
        return rounds

    def total_seconds(self) -> Dict[int, Dict[str, float]]:
        """``round -> span name -> summed full durations`` (children included)."""
        rounds: Dict[int, Dict[str, float]] = {}
        for name, start, end, _, round_id in self.spans:
            if end is not None:
                bucket = rounds.setdefault(round_id, {})
                bucket[name] = bucket.get(name, 0.0) + (end - start)
        return rounds

    def counts(self) -> Dict[int, Dict[str, float]]:
        return self._counts

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "round": r}
                        for n, s, e, p, r in self.spans
                    ],
                    "counts": {str(r): c for r, c in self._counts.items()},
                },
                handle,
            )


class NullTracer(Tracer):
    """The untraced rounds' tracer: every call is a no-op."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> float:
        return 0.0

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, amount: float = 1.0) -> None:
        pass


#: Shared no-op tracer for untraced rounds.
NULL = NullTracer()


def median_per_round(
    rounds: Dict[int, Dict[str, float]], name: str, round_ids: List[int]
) -> float:
    """Median over ``round_ids`` of ``name``'s per-round value (0 if absent)."""
    values = [rounds.get(round_id, {}).get(name, 0.0) for round_id in round_ids]
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], share: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered) + 0.5)) - 1))
    return ordered[rank]
