"""Content-addressed stage-boundary IR snapshot cache.

Design-space exploration compiles thousands of points that share a pipeline
*prefix*: the same workload, target and leading stages, differing only in
trailing knobs (parallelize factors, estimate flavor).  This module caches
the compilation state at stage boundaries so :meth:`Compiler.run
<repro.compiler.driver.Compiler.run>` can resume mid-pipeline instead of
recompiling from the frontend.

A snapshot is keyed by::

    ir|v<SCHEMA_VERSION>|<workload key>|<platform>|<prefix hash>

* ``workload key`` — the registry workload id with its bound parameters
  (``nn:lenet@batch=4``); runs over raw modules key by the module's
  content fingerprint instead.
* ``platform`` — the target name; stages consult platform parameters, so
  snapshots never cross targets.
* ``prefix hash`` — SHA-256 of the canonical printed spec of the stage
  prefix the snapshot sits behind.  Canonical spec printing omits
  options equal to their defaults, so equivalent prefixes share entries.
* ``SCHEMA_VERSION`` — bumped whenever the payload layout or the printed
  IR grammar changes; stale entries then miss instead of mis-parsing.

The payload is *printed IR text* (see :mod:`repro.ir.printer` /
:mod:`repro.ir.parser`) plus a name-hint sidecar and the small JSON-safe
extras a :class:`~repro.compiler.stages.CompilationState` accumulates
through snapshot-safe stages (balance counters, misalignments).  Schedules
are not serialized separately — they are re-collected by walking the parsed
module, which the snapshot self-verifies at save time: every snapshot is
parsed back, re-printed and byte-compared before it is stored, and — when
the module fits the reference interpreter's op budget — *executed* against
the live state (:mod:`repro.ir.interp`), refusing any snapshot whose
behavior differs.  A cache can therefore never serve a state that differs
from what the cold compile produced.  Consecutive boundaries often print
the same text; a store that repeats the last accepted text and hints
reuses that text's parse-side verdicts and re-executes only the live state.

Storage reuses the :class:`~repro.dse.cache.QoRCache` store: two-level
fan-out of JSON files under ``~/.cache/repro/ir`` (override with
``$REPRO_IR_CACHE`` or ``--ir-cache-dir``), atomic tmp+rename writes, and
deterministic size-capped LRU eviction (mtime with path tiebreak).

Alongside snapshots the cache keeps a tiny *frontend fingerprint memo*
(workload key -> module content fingerprint), which lets DSE workers
compute QoR-cache keys for warm workloads without re-tracing the frontend
at all.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import List, Optional, Tuple

from .. import obs
from ..dialects.dataflow import ScheduleOp
from ..hida.dataflow_opt import BalanceReport
from ..ir.builtin import ModuleOp
from ..ir.parser import IRParseError, assign_name_hints, collect_name_hints, parse_op
from ..ir.printer import print_op
from .stages import CompilationState

__all__ = [
    "IRSnapshotCache",
    "default_ir_cache_dir",
    "workload_cache_key",
    "SCHEMA_VERSION",
]

#: Snapshot schema version: bump when the payload layout, the printed IR
#: grammar, or the semantics of any snapshot-safe stage change.  2: string
#: attributes escape '"' and '\'.
SCHEMA_VERSION = 2

#: Interpreter op budget for the execute-and-compare snapshot check.
#: Kept small: store() runs on the compile hot path, so large modules skip
#: the executed check (the print->parse->print round-trip still gates them).
_EXEC_VERIFY_MAX_OPS = 250_000


def default_ir_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_IR_CACHE`` or ``~/.cache/repro/ir``."""
    override = os.environ.get("REPRO_IR_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "ir"


def workload_cache_key(workload: object) -> Optional[str]:
    """Stable identity string for a workload reference, or None.

    Accepts everything :func:`repro.workloads.as_module` accepts except a
    pre-built module: a workload id string or a bound
    :class:`~repro.workloads.registry.Workload` handle — both spellings of
    one workload share the handle's canonical ``workload_id``, so the
    compiler and DSE front doors hit each other's snapshots.  Raw modules
    have no registry identity — callers key those by content fingerprint
    instead.
    """
    from ..workloads.registry import Workload, get_workload

    if not isinstance(workload, (str, Workload)):
        return None
    return get_workload(workload).workload_id


class IRSnapshotCache:
    """File-backed store of stage-boundary compilation-state snapshots."""

    #: The store protocol of :meth:`Compiler.run_stages
    #: <repro.compiler.driver.Compiler.run_stages>`: snapshots start after
    #: the first stage (a frontend module rebuilds from the registry, and
    #: the fingerprint memo spares even that), and the run's counters land
    #: under ``ir_cache.*``.
    first_boundary = 1
    counters = "ir_cache"

    def __init__(
        self, root: Optional[os.PathLike] = None, max_entries: int = 4096
    ) -> None:
        # Imported lazily: repro.dse pulls in the DSE runner (and thus this
        # package) at import time, so a module-level import would cycle.
        from ..dse.cache import QoRCache

        self._store = QoRCache(
            root=Path(root) if root is not None else default_ir_cache_dir(),
            max_entries=max_entries,
        )
        #: Snapshots served this process (longest-prefix probe successes).
        self.hits = 0
        #: Probes that found nothing usable.
        self.misses = 0
        #: Snapshots written this process.
        self.stores = 0
        #: Snapshots refused at store time: the print->parse->print
        #: round-trip, the schedule re-collection or the executed compare
        #: failed self-verification.
        self.verify_failures = 0
        #: Every refusal, store- and load-side (each also an ``obs`` event).
        self.refused = 0
        #: Snapshots whose parsed form also *executed* identically to the
        #: live state (reference-interpreter compare at store time).
        self.exec_verified = 0
        #: Snapshots stored without the executed check (module exceeded the
        #: interpreter budget or uses ops it cannot execute).
        self.exec_skipped = 0
        #: The last accepted snapshot's ``(text, hints, schedule count of its
        #: parse, the parse's ExecutionResult or None)``; no IR is kept.
        self._last: Optional[tuple] = None

    @property
    def root(self) -> Path:
        return self._store.root

    # ----------------------------------------------------------------- keys
    @staticmethod
    def snapshot_key(workload_key: str, platform: str, prefix_hash: str) -> str:
        return f"ir|v{SCHEMA_VERSION}|{workload_key}|{platform}|{prefix_hash}"

    @staticmethod
    def fingerprint_key(workload_key: str) -> str:
        return f"irfp|v{SCHEMA_VERSION}|{workload_key}"

    @staticmethod
    def prefix_hash(spec_prefix_text: str) -> str:
        """Hash of a canonical printed pipeline-spec prefix."""
        return hashlib.sha256(spec_prefix_text.encode("utf-8")).hexdigest()[:16]

    # ---------------------------------------------------- frontend fingerprints
    def get_fingerprint(self, workload_key: str) -> Optional[str]:
        """Cached frontend-module content fingerprint for a workload."""
        payload = self._store.get(self.fingerprint_key(workload_key))
        if payload is None:
            return None
        fingerprint = payload.get("fingerprint")
        return fingerprint if isinstance(fingerprint, str) else None

    def put_fingerprint(self, workload_key: str, fingerprint: str) -> None:
        self._store.put(
            self.fingerprint_key(workload_key), {"fingerprint": fingerprint}
        )

    # ------------------------------------------------------------- snapshots
    def _refuse(self, phase: str, reason: str) -> None:
        """Count a refusal and say why, under a stable reason id.

        ``parse``: the text (or its hint sidecar) does not parse back into a
        module; ``reprint-differs``; ``schedule-count``; ``exec-differs``;
        ``payload``: a stored entry lacks a field or holds the wrong type.
        """
        self.refused += 1
        obs.inc("ir_cache.refused")
        obs.event("ircache.refused", cat="cache", phase=phase, reason=reason)

    def store(
        self,
        workload_key: str,
        platform: str,
        prefix_hash: str,
        state: CompilationState,
    ) -> bool:
        """Snapshot ``state`` at a stage boundary; returns True if written.

        The snapshot is self-verified before it is written: the printed
        module must parse back to byte-identical text (with the name-hint
        sidecar applied), re-collect exactly the schedules the live state
        holds and, within the interpreter budget, execute like the live
        module.  Failing any check refuses the snapshot — the run continues
        uncached rather than risking a divergent warm path.  When the text
        and hints equal the last accepted snapshot's, the parse side of
        those checks is already known; only the schedule count and the
        live module's execution are checked again.
        """
        key = self.snapshot_key(workload_key, platform, prefix_hash)
        if key in self._store:
            return False  # identical content by construction of the key
        text = print_op(state.module)
        hints = collect_name_hints(state.module)
        clone, warm = None, None
        try:
            if self._last is not None and self._last[:2] == (text, hints):
                num_schedules, warm = self._last[2:]
            else:
                clone = _reparse(text, hints)
                if print_op(clone) != text:
                    raise _Refused("reprint-differs")
                num_schedules = len(_collect_schedules(clone))
            if num_schedules != len(state.schedules):
                raise _Refused("schedule-count")
        except _Refused as refusal:
            self.verify_failures += 1
            self._refuse("store", refusal.reason)
            return False
        # Executed self-check: the parsed snapshot must behave identically
        # to the live state under the reference interpreter.  A textual
        # round-trip can be byte-clean and still lose behavior if printer
        # and parser share a blind spot; execution has no such blind spot,
        # so the live module runs on every store, repeated text or not.
        from ..ir import interp

        try:
            live = interp.interpret_module(
                state.module, max_ops=_EXEC_VERIFY_MAX_OPS
            )
            if warm is None:
                if clone is None:  # repeated text, live side skipped last time
                    clone = _reparse(text, hints)
                warm = interp.interpret_module(clone, max_ops=_EXEC_VERIFY_MAX_OPS)
        except interp.InterpreterError:
            self.exec_skipped += 1
        else:
            if interp.diff_results(live, warm):
                self.verify_failures += 1
                self._refuse("store", "exec-differs")
                return False
            self.exec_verified += 1
        self._last = (text, hints, num_schedules, warm)
        payload = {
            "ir": text,
            "hints": hints,
            "balance": {
                "buffers_deepened": state.balance_report.buffers_deepened,
                "copy_nodes_inserted": state.balance_report.copy_nodes_inserted,
                "soft_fifos": state.balance_report.soft_fifos,
                "token_streams": state.balance_report.token_streams,
            },
            "misalignments": state.misalignments,
            "num_schedules": len(state.schedules),
        }
        self._store.put(key, payload)
        self.stores += 1
        return True

    def load(
        self, workload_key: str, platform: str, prefix_hash: str
    ) -> Optional[Tuple[ModuleOp, List[ScheduleOp], BalanceReport, int]]:
        """Rehydrate a snapshot: (module, schedules, balance report, misalignments).

        Returns None on a miss or on any payload that fails to parse back
        cleanly (treated as a miss — the caller recompiles and overwrites).
        """
        payload = self._store.get(
            self.snapshot_key(workload_key, platform, prefix_hash)
        )
        if payload is None:
            self.misses += 1
            return None
        try:
            module = _reparse(payload["ir"], payload["hints"])
            schedules = _collect_schedules(module)
            if len(schedules) != int(payload["num_schedules"]):
                raise _Refused("schedule-count")
            balance = BalanceReport(**payload["balance"])
            misalignments = int(payload["misalignments"])
        except _Refused as refusal:
            reason = refusal.reason
        except (KeyError, TypeError, ValueError):
            reason = "payload"
        else:
            self.hits += 1
            return module, schedules, balance, misalignments
        self.misses += 1
        self._refuse("load", reason)
        return None

    # ----------------------------------------------------------- maintenance
    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return (
            f"IRSnapshotCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, stores={self.stores})"
        )


class _Refused(Exception):
    """A snapshot failed a check; ``reason`` is the id its ``obs`` event carries."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _reparse(text: str, hints: list) -> ModuleOp:
    """A snapshot's module, parsed back from its text and hint sidecar."""
    try:
        module = assign_name_hints(parse_op(text), hints)
    except IRParseError:
        raise _Refused("parse") from None
    if not isinstance(module, ModuleOp):
        raise _Refused("parse")
    return module


def _collect_schedules(module: ModuleOp) -> List[ScheduleOp]:
    """Re-collect schedule ops exactly as ``lower-structural`` ordered them.

    ``CompilationState.schedules`` is the list returned by the structural
    lowering; its order matches a function-order walk of the module, which
    is what makes re-collection from a parsed snapshot faithful (verified
    per-snapshot at store time via the count, and property-tested across
    the workload zoo).
    """
    return [
        op
        for func in module.functions
        for op in func.walk()
        if isinstance(op, ScheduleOp)
    ]
