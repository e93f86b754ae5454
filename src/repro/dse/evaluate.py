"""Evaluating one design point: fingerprint, cache key, probe, compile.

:func:`probe_point` is the single "what is this point, and is its QoR
already known" sequence; :func:`repro.dse.runner.explore` calls it from the
orchestrating process before fan-out and :func:`evaluate_point` calls it
wherever a point runs unprobed (a worker process, a run without a QoR
cache), so both sides agree on record layout and cache keys by construction.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Optional, Tuple

from .. import obs
from ..compiler.ircache import IRSnapshotCache
from ..estimation.qor import QoREstimator
from ..ir.printer import fingerprint_op
from ..workloads.registry import registered_definition
from .cache import QoRCache
from .fidelity import DEFAULT_FIDELITY, SIMULATE_CACHE_TAG, SimulationInput, check_fidelity, payload
from .sharing import SharedPrefixes
from .space import DesignPoint

__all__ = ["evaluate_point", "open_caches", "point_record", "probe_point"]

#: Per-process memo ``workload identity -> (definition, fingerprint)`` of
#: workload-module fingerprints (see :attr:`DesignPoint.workload_identity`).
#: A workload rebuilds deterministically from that *and* its registered
#: builder, so an entry holds while the registry still maps the name to the
#: same definition; memoizing lets cache hits skip the handle resolution
#: and the module build entirely.
_WORKLOAD_FINGERPRINTS: Dict = {}


def _point_cache_key(
    fingerprint: str, platform: str, spec_text: str, fidelity: str = DEFAULT_FIDELITY
) -> str:
    """Cache key of one evaluated point.

    Keyed by *what* is compiled (the input module's printed-IR fingerprint),
    *where* it targets (the platform) and *how* it is compiled — the
    canonical printed pipeline spec, so flag-driven points and textual-spec
    points that denote the same stage sequence share cache entries.
    Includes the estimator's MODEL_VERSION so that bumping it (the
    documented way to signal an analytical-model change) invalidates every
    persisted QoR record, not just in-process estimator caches.

    Simulate keys append :data:`~repro.dse.fidelity.SIMULATE_CACHE_TAG`, so
    estimate and simulate records never collide; base-level keys are
    byte-identical to pre-fidelity caches, which therefore stay warm.
    """
    key = (
        f"point|m{QoREstimator.MODEL_VERSION}|{fingerprint}|{platform}|{spec_text}"
    )
    if fidelity != DEFAULT_FIDELITY:
        check_fidelity(fidelity)
        key = f"{key}|{SIMULATE_CACHE_TAG}"
    return key


def _resolve_fingerprint(point: DesignPoint, ir_cache) -> tuple:
    """``(fingerprint, module)`` of a point's workload (module None if unbuilt).

    Resolution order: per-process memo, then the IR cache's persistent
    frontend-fingerprint memo (which makes warm processes and fresh workers
    alike skip the frontend trace entirely), then an actual trace — whose
    fingerprint is published back to both memos.
    """
    definition = registered_definition(point.workload)
    identity = point.workload_identity
    memo = _WORKLOAD_FINGERPRINTS.get(identity)
    if memo is not None and memo[0] is definition:
        return memo[1], None
    module = None
    workload = point.workload_spec()
    workload_key = workload.workload_id
    fingerprint = (
        ir_cache.get_fingerprint(workload_key) if ir_cache is not None else None
    )
    if fingerprint is None:
        module = workload.build_module()
        fingerprint = fingerprint_op(module)
        if ir_cache is not None:
            ir_cache.put_fingerprint(workload_key, fingerprint)
    _WORKLOAD_FINGERPRINTS[identity] = (definition, fingerprint)
    return fingerprint, module


def open_caches(cache_dir: Optional[str], ir_cache_dir: Optional[str]) -> tuple:
    """``(QoRCache, IRSnapshotCache)`` handles, None for a cache that is off."""
    return (
        QoRCache(cache_dir) if cache_dir else None,
        IRSnapshotCache(ir_cache_dir) if ir_cache_dir else None,
    )


def point_record(point: DesignPoint, fidelity: str) -> Dict:
    """The skeleton every record of ``point`` starts from."""
    return {
        "point": point.to_dict(),
        "point_key": point.key(),
        "label": point.label(),
        "workload": point.workload,
        "fidelity": fidelity,
    }


def probe_point(
    point: DesignPoint,
    qor_cache: Optional[QoRCache],
    fidelity: str,
    ir_cache: Optional[IRSnapshotCache],
    **span_attrs,
) -> Tuple[Dict, Optional[tuple]]:
    """Record skeleton → fingerprint → cache key → QoR-cache probe.

    Returns ``(record, miss)``.  On a hit the record is complete
    (``cached=True``), ``miss`` is None and no compiler was built.  On a
    miss, ``miss`` is the ``(key, module)`` the compile continues from
    (``module`` is None unless the fingerprint needed a frontend trace).
    Never raises: a failure leaves ``record["error"]`` and no ``miss``.
    """
    record = point_record(point, fidelity)
    try:
        spec_text = point.canonical_spec()
        fingerprint, module = _resolve_fingerprint(point, ir_cache)
        record["module_fingerprint"] = fingerprint
        record["pipeline_spec"] = spec_text
        key = _point_cache_key(fingerprint, point.platform, spec_text, fidelity)
        cached = None
        if qor_cache is not None:
            with obs.span("qor-cache.probe", cat="cache", **span_attrs):
                cached = qor_cache.get(key)
        if cached is None:
            return record, (key, module)
        record.update(cached)
        record["cached"] = True
        record["fidelity"] = fidelity
    except Exception:
        record["error"] = traceback.format_exc(limit=8)
        record["cached"] = False
    return record, None


def evaluate_point(
    point: DesignPoint,
    cache_dir: Optional[str] = None,
    fidelity: str = DEFAULT_FIDELITY,
    ir_cache_dir: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
    probed: Optional[tuple] = None,
    base: Optional[SimulationInput] = None,
    shared: Optional[SharedPrefixes] = None,
) -> Dict:
    """Evaluate one design point; safe to call in a worker process.

    Either replays the cached QoR record (see :func:`probe_point`) or runs
    the compilation pipeline and caches its outcome.  ``fidelity`` selects
    the QoR level the payload is produced at (``"estimate"`` =
    analytic model, ``"simulate"`` = dataflow simulation); the record
    carries the level name so consumers can re-rank on the most trusted
    record per point.  Never raises: failures come back as records with an
    ``"error"`` field so one broken point cannot sink a whole sweep.

    ``ir_cache_dir`` enables the stage-boundary IR snapshot cache
    (:mod:`repro.compiler.ircache`): the workload fingerprint resolves from
    the cache's frontend memo instead of a fresh trace where possible, and
    a QoR-cache miss compiles through :meth:`Compiler.run
    <repro.compiler.driver.Compiler.run>` with prefix resumption.  The
    run's reuse counters travel under the record's ``"ir_cache"`` key,
    which :func:`~repro.dse.runner.explore` pops into aggregate statistics
    — cached QoR records themselves stay byte-identical with the IR cache
    on or off.

    ``trace`` carries a serialized :class:`~repro.obs.SpanContext` into
    worker processes: the worker adopts it (so its spans stitch under the
    orchestrating span), then hands its collected events back under the
    record's ``"telemetry"`` key — popped by the parent exactly like
    ``"ir_cache"``, so traced and untraced records are byte-identical.

    ``probed`` is a :func:`probe_point` miss the caller holds for this point:
    evaluation continues from it (a traced module is compiled, not traced
    again).  In-process only: IR is not pickled, so a worker probes for itself.

    A compile hands back its IR-free
    :class:`~repro.dse.fidelity.SimulationInput` under ``"simulation_input"``
    (popped like ``"ir_cache"``); given it as ``base``, a later evaluation
    of the point at another level applies that level to it, not compiling.

    ``shared`` is the prefix group's :class:`~repro.dse.sharing.SharedPrefixes`
    when the IR cache is off: the point compiles with the compiler and keys
    the group planned for it, resumes from the deepest prefix state held
    for it, and leaves one for later points.
    """
    obs.begin_worker(trace)
    started = time.perf_counter()
    qor_cache, ir_cache = open_caches(cache_dir, ir_cache_dir)
    with obs.span(
        "dse.point", cat="dse", label=point.label(), fidelity=fidelity
    ) as point_span:
        record, miss = probed or probe_point(point, qor_cache, fidelity, ir_cache)
        if miss is None:
            if record["cached"]:
                point_span.set_attr(cached=True)
        else:
            key, module = miss
            try:
                result = base
                if result is None:
                    # With no module in hand the driver builds it — or, on an
                    # IR-cache prefix hit, rehydrates from the snapshot and
                    # the frontend never runs in this process at all.
                    planned = shared.planned(point) if shared is not None else None
                    if planned is None:  # no group plan, or the point does not resolve
                        result = point.compiler().run(
                            module, workload=point.workload_spec(), ir_cache=ir_cache
                        )
                    else:
                        result = planned.compiler.run(
                            module,
                            workload=planned.workload,
                            ir_cache=shared if shared.covers(point) else None,
                            keys=planned.keys,
                        )
                    if ir_cache is not None:
                        record["ir_cache"] = result.ir_cache_stats
                qor = payload(fidelity, result)
                if base is None:
                    record["simulation_input"] = SimulationInput(
                        result.graphs, result.estimate, dict(qor["summary"]), result.platform
                    )
                if qor_cache is not None:
                    qor_cache.put(key, qor)
                record.update(qor)
            except Exception:
                record["error"] = traceback.format_exc(limit=8)
            record["cached"] = False
    record["eval_seconds"] = time.perf_counter() - started
    if trace is not None:
        telemetry = obs.drain_worker()
        if telemetry is not None:
            record["telemetry"] = telemetry
    return record
