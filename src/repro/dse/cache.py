"""Persistent content-hash QoR cache.

Design-space exploration revisits design points constantly — across reruns,
across overlapping spaces, and across benchmark suites that share kernels.
The cache keys each evaluated point by a SHA-256 over *content*, never
object identity:

* the input module's printed-IR fingerprint (what is compiled),
* the full serialized option set (how it is compiled),
* a schema version (so model changes invalidate stale entries).

Entries are small JSON files stored in a two-level fan-out directory
(``<root>/<key[:2]>/<key>.json``).  Writes go through a temp file plus
atomic rename, so concurrent worker processes never observe torn entries
and never need locks — at worst two workers compute the same point and one
rename wins with an identical payload.

The default location is ``~/.cache/repro/dse`` (override with the
``REPRO_DSE_CACHE`` environment variable or the ``--cache-dir`` CLI flag).
Eviction is size-capped LRU-by-mtime: when the entry count exceeds
``max_entries`` the oldest-read entries are deleted down to the cap.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .. import obs

__all__ = ["QoRCache", "default_cache_dir"]

#: Cache schema version: bump when record layout or QoR semantics change.
CACHE_VERSION = 1


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_DSE_CACHE`` or ``~/.cache/repro/dse``."""
    override = os.environ.get("REPRO_DSE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "dse"


class QoRCache:
    """File-backed JSON store mapping content keys to QoR records."""

    def __init__(
        self, root: Optional[os.PathLike] = None, max_entries: int = 8192
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_entries = max_entries
        #: Probes by :meth:`get` that found / did not find a usable entry.
        self.hits = 0
        self.misses = 0

    def _record_probe(self, key: str, hit: bool) -> None:
        # Keys are namespaced ("point|...", "ir|...", "irfp|..."), so the
        # leading token tells the telemetry which cache family was probed.
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        kind = key.split("|", 1)[0]
        obs.inc(f"cache.{kind}.{'hits' if hit else 'misses'}")
        obs.event("cache.get", cat="cache", kind=kind, hit=hit, key=key[:96])

    # ---------------------------------------------------------------- paths
    def _path(self, key: str) -> Path:
        # Hash the whole key: filenames stay bounded and the two-level
        # fan-out spreads uniformly (raw keys share long constant prefixes).
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / digest[:2] / f"{digest}.json"

    # ----------------------------------------------------------------- api
    def _read(self, key: str) -> Optional[Dict]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = None
        # Anything but a current-version object holding an object payload
        # (truncated file, ``null``, ``[]``, version skew) is a miss: the
        # caller recompiles and ``put`` overwrites the bad entry.
        payload = (
            record.get("payload")
            if isinstance(record, dict)
            and record.get("_cache_version") == CACHE_VERSION
            else None
        )
        if not isinstance(payload, dict):
            return None
        with contextlib.suppress(OSError):
            # Touch for LRU eviction ordering.
            os.utime(path)
        return payload

    def get(self, key: str) -> Optional[Dict]:
        payload = self._read(key)
        self._record_probe(key, hit=payload is not None)
        return payload

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit; not a probe, so nothing is counted."""
        return self._read(key) is not None

    def put(self, key: str, payload: Dict) -> None:
        # Encoded before any file exists: one C-accelerated ``dumps`` (not
        # the pure-Python streaming ``dump``), and a payload that does not
        # serialize raises without leaving a temp file behind.
        text = json.dumps(
            {"_cache_version": CACHE_VERSION, "payload": payload}, sort_keys=True
        )
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        kind = key.split("|", 1)[0]
        obs.inc(f"cache.{kind}.stores")
        obs.event("cache.put", cat="cache", kind=kind, key=key[:96])
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        # A full entry scan per put is O(n).  For real cache sizes, only pay
        # it when this entry's fan-out bucket exceeds its share of the cap
        # (keys hash uniformly, so a crowded bucket implies the whole cache
        # is near the limit); tiny caps check every put so the bound is firm.
        per_bucket_cap = self.max_entries // 256
        if per_bucket_cap < 2:
            self._evict_if_needed()
            return
        try:
            bucket_size = sum(1 for _ in path.parent.glob("*.json"))
        except OSError:
            bucket_size = 0
        if bucket_size > per_bucket_cap:
            self._evict_if_needed()

    # ------------------------------------------------------------- eviction
    def _entries(self):
        if not self.root.exists():
            return []
        return list(self.root.glob("*/*.json"))

    def _evict_if_needed(self) -> None:
        entries = self._entries()
        if len(entries) <= self.max_entries:
            return
        # Concurrent workers evict too: entries can vanish between the glob
        # and the stat, so treat every filesystem touch as best-effort.
        stamped = []
        for path in entries:
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        # Coarse filesystem timestamps tie constantly under parallel workers;
        # tiebreak on the path so every worker deletes the same entries.
        stamped.sort(key=lambda item: (item[0], str(item[1])))
        for _, stale in stamped[: len(stamped) - self.max_entries]:
            with contextlib.suppress(OSError):
                stale.unlink()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._entries())

    def __repr__(self) -> str:
        return (
            f"QoRCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
