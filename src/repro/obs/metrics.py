"""Typed metrics: counters, gauges and their registry.

A live session counts into one registry; worker-process dumps merge
losslessly into the parent's (:meth:`MetricsRegistry.merge`).

Everything serializes to plain JSON (:meth:`MetricsRegistry.to_dict`), so
metric dumps travel through result records and ``--metrics-json`` files
without custom codecs.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def merge(self, dump: Dict[str, Any]) -> None:
        self.value += float(dump.get("value", 0.0))


class Gauge:
    """Last-written value (e.g. a high-water mark or current depth)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        self.value = max(self.value, float(value))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def merge(self, dump: Dict[str, Any]) -> None:
        # Merging gauges from workers keeps the maximum: the common uses
        # (high-water marks, peak depths) want the worst case, and a
        # last-writer-wins would be order-dependent across processes.
        self.set_max(float(dump.get("value", 0.0)))


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Name-keyed store of typed metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind: str) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = _KINDS[kind](name)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    # ------------------------------------------------------------ shortcuts
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def value(self, name: str, default: float = 0.0) -> float:
        metric = self._metrics.get(name)
        if metric is None:
            return default
        return float(metric.value)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: self._metrics[name].to_dict() for name in sorted(self._metrics)}

    def merge(self, dump: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`to_dict` dump (e.g. from a worker) into this registry.

        Counters add; gauges keep their maximum.  A kind conflict raises
        rather than silently corrupting a metric.
        """
        for name, payload in dump.items():
            kind = str(payload.get("kind", "counter"))
            if kind not in _KINDS:
                raise TypeError(f"metric {name!r} has unknown kind {kind!r}")
            self._get(name, kind).merge(payload)

    def drain(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot and reset — workers hand these dumps to the parent."""
        dump = self.to_dict()
        self._metrics.clear()
        return dump
