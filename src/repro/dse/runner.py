"""The parallel design-space exploration engine.

``explore`` fans a :class:`~repro.dse.space.DesignSpace` out across worker
processes with :mod:`concurrent.futures`.  Each worker rebuilds its
workload module from the picklable :class:`~repro.hida.pipeline.WorkloadSpec`
(IR does not cross process boundaries), consults the content-hash
:class:`~repro.dse.cache.QoRCache`, and only runs the full HIDA pipeline on
a cache miss.  Results come back as plain JSON-safe record dicts, so the
orchestrating process never unpickles IR either.

Determinism: records are re-ordered to the input point order after the
parallel map, and the Pareto extraction sorts by objective vector, so the
frontier is identical for any worker count.

``explore(strategy=...)`` switches from the one-shot full sweep to an
adaptive search (see :mod:`repro.dse.search`): the strategy proposes
batches of points, each batch runs through the same cache-aware fan-out,
and the observed records steer the next batch.  ``budget`` bounds the
number of distinct points evaluated; cache hits cost no compile time but
count toward the budget, so cold and warm runs follow identical
trajectories.

``explore(fidelity="simulate", promote_top=...)`` races QoR fidelities
(see :mod:`repro.dse.fidelity`): every point is scored by the cheap
analytic model, the most promising fraction is promoted to the dataflow
simulator, and the frontier is re-ranked on the highest-fidelity record
per point.  ``patience`` stops an adaptive search once that many
consecutive generations fail to improve frontier hypervolume.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..compiler.ircache import (
    IRSnapshotCache,
    default_ir_cache_dir,
    workload_cache_key,
)
from ..estimation.qor import QoREstimator
from ..obs.metrics import MetricsRegistry
from ..evaluation.reporting import ExplorationResult, relative_disagreement
from ..ir.printer import fingerprint_op
from .cache import QoRCache
from .fidelity import (
    DEFAULT_FIDELITY,
    DEFAULT_PROMOTE_TOP,
    PromotionPolicy,
    best_fidelity_records,
    get_fidelity,
)
from .pareto import (
    DEFAULT_OBJECTIVES,
    SUMMARY_METRICS,
    hypervolume,
    hypervolume_reference,
    pareto_frontier,
)
from .space import DesignPoint, DesignSpace

__all__ = ["evaluate_point", "explore"]

#: Per-process memo of workload-module fingerprints.  Workloads rebuild
#: deterministically from their spec, so the fingerprint is a pure function
#: of the spec for the lifetime of a process; memoizing it lets cache hits
#: skip the module build entirely.
_WORKLOAD_FINGERPRINTS: Dict = {}


def _record_for_point(point: DesignPoint) -> Dict:
    return {
        "point": point.to_dict(),
        "point_key": point.key(),
        "label": point.label(),
        "workload": point.workload,
    }


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

    Non-base fidelity levels append their versioned tag, so estimate and
    simulate records never collide; base-level keys are byte-identical to
    pre-fidelity caches, which therefore stay warm.
    """
    key = (
        f"point|m{QoREstimator.MODEL_VERSION}|{fingerprint}|{platform}|{spec_text}"
    )
    if fidelity != DEFAULT_FIDELITY:
        key = f"{key}|{get_fidelity(fidelity).cache_tag()}"
    return key


def _resolve_fingerprint(spec, ir_cache) -> tuple:
    """``(fingerprint, module, traces)`` for a workload spec.

    Resolution order: per-process memo, then the IR cache's persistent
    frontend-fingerprint memo (which makes warm processes and fresh workers
    alike skip the frontend trace entirely), then an actual trace — whose
    fingerprint is published back to both memos.  ``traces`` counts how
    many frontend traces this call performed (0 or 1).
    """
    fingerprint = _WORKLOAD_FINGERPRINTS.get(spec)
    if fingerprint is not None:
        return fingerprint, None, 0
    workload_key = workload_cache_key(spec)
    if ir_cache is not None and workload_key is not None:
        fingerprint = ir_cache.get_fingerprint(workload_key)
        if fingerprint is not None:
            _WORKLOAD_FINGERPRINTS[spec] = fingerprint
            return fingerprint, None, 0
    module = spec.build()
    fingerprint = fingerprint_op(module)
    _WORKLOAD_FINGERPRINTS[spec] = fingerprint
    if ir_cache is not None and workload_key is not None:
        ir_cache.put_fingerprint(workload_key, fingerprint)
    return fingerprint, module, 1


def evaluate_point(
    point: DesignPoint,
    cache_dir: Optional[str] = None,
    fidelity: str = DEFAULT_FIDELITY,
    ir_cache_dir: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
) -> Dict:
    """Evaluate one design point; safe to call in a worker process.

    Builds the workload module, computes the content-hash cache key from the
    *input* module fingerprint plus the point's canonical pipeline spec, and
    either replays the cached QoR record or runs the compilation pipeline and
    caches its outcome.  ``fidelity`` selects the registered QoR level the
    payload is produced at (``"estimate"`` = analytic model, ``"simulate"``
    = dataflow simulation); the record carries the level name so consumers
    can re-rank on the most trusted record per point.  Never raises:
    failures come back as records with an ``"error"`` field so one broken
    point cannot sink a whole sweep.

    ``ir_cache_dir`` enables the stage-boundary IR snapshot cache
    (:mod:`repro.compiler.ircache`): the workload fingerprint resolves from
    the cache's frontend memo instead of a fresh trace where possible, and
    a QoR-cache miss compiles through :meth:`Compiler.run
    <repro.compiler.driver.Compiler.run>` with prefix resumption.  The
    run's reuse counters travel under the record's ``"ir_cache"`` key,
    which :func:`explore` pops into aggregate statistics — cached QoR
    records themselves stay byte-identical with the IR cache on or off.

    ``trace`` carries a serialized :class:`~repro.obs.SpanContext` into
    worker processes: the worker adopts it (so its spans stitch under the
    orchestrating span), then hands its collected events back under the
    record's ``"telemetry"`` key — popped by the parent exactly like
    ``"ir_cache"``, so traced and untraced records are byte-identical.
    """
    obs.begin_worker(trace)
    record = _record_for_point(point)
    record["fidelity"] = fidelity
    started = time.perf_counter()
    ir_stats: Optional[Dict[str, int]] = None
    with obs.span(
        "dse.point", cat="dse", label=point.label(), fidelity=fidelity
    ) as point_span:
        try:
            level = get_fidelity(fidelity)
            compiler = point.compiler()
            spec = point.workload_spec()
            ir_cache = IRSnapshotCache(ir_cache_dir) if ir_cache_dir else None
            if ir_cache is not None:
                ir_stats = {
                    "prefix_hits": 0,
                    "stages_skipped": 0,
                    "stages_run": 0,
                    "frontend_traces": 0,
                    "snapshots_stored": 0,
                }
            fingerprint, module, traces = _resolve_fingerprint(spec, ir_cache)
            if ir_stats is not None:
                ir_stats["frontend_traces"] += traces
            record["module_fingerprint"] = fingerprint
            record["pipeline_spec"] = compiler.spec_text()
            cache = QoRCache(cache_dir) if cache_dir else None
            key = _point_cache_key(
                fingerprint, point.platform, compiler.spec_text(), fidelity
            )
            cached = None
            if cache is not None:
                with obs.span("qor-cache.probe", cat="cache"):
                    cached = cache.get(key)
            if cached is not None:
                record.update(cached)
                record["cached"] = True
                record["fidelity"] = fidelity
                point_span.set_attr(cached=True)
            else:
                if ir_cache is not None:
                    # Hand the *spec* through when no module is in hand: on
                    # a prefix hit the driver rehydrates from the snapshot
                    # and the frontend never runs in this process at all.
                    result = (
                        compiler.run(
                            module,
                            ir_cache=ir_cache,
                            workload_key=workload_cache_key(spec),
                        )
                        if module is not None
                        else compiler.run(workload=spec, ir_cache=ir_cache)
                    )
                    for name, value in compiler.ir_cache_stats.items():
                        ir_stats[name] = ir_stats.get(name, 0) + value
                else:
                    if module is None:
                        module = spec.build()
                    result = compiler.run(module)
                payload = level.apply(result)
                if cache is not None:
                    cache.put(key, payload)
                record.update(payload)
                record["cached"] = False
        except Exception:
            record["error"] = traceback.format_exc(limit=8)
            record["cached"] = False
    if ir_stats is not None:
        record["ir_cache"] = ir_stats
    record["eval_seconds"] = time.perf_counter() - started
    if trace is not None:
        telemetry = obs.drain_worker()
        if telemetry is not None:
            record["telemetry"] = telemetry
    return record


def _replay_cached(
    point: DesignPoint,
    cache_dir: str,
    fidelity: str = DEFAULT_FIDELITY,
    ir_cache_dir: Optional[str] = None,
) -> Optional[Dict]:
    """Parent-side cache probe: a completed record on a hit, else None.

    Probing before fan-out keeps fully-warm sweeps free of process-pool
    startup — a cached point costs one (memoized) workload fingerprint and
    one JSON read.
    """
    record = _record_for_point(point)
    record["fidelity"] = fidelity
    started = time.perf_counter()
    try:
        spec = point.workload_spec()
        spec_text = point.canonical_spec()
        ir_cache = IRSnapshotCache(ir_cache_dir) if ir_cache_dir else None
        fingerprint, _, _ = _resolve_fingerprint(spec, ir_cache)
        key = _point_cache_key(fingerprint, point.platform, spec_text, fidelity)
        with obs.span("qor-cache.probe", cat="cache", side="parent"):
            cached = QoRCache(cache_dir).get(key)
        if cached is None:
            return None
        record["module_fingerprint"] = fingerprint
        record["pipeline_spec"] = spec_text
        record.update(cached)
        record["cached"] = True
        record["fidelity"] = fidelity
        record["eval_seconds"] = time.perf_counter() - started
        return record
    except Exception:
        # Any probe failure falls through to a full (worker) evaluation.
        return None


def _worker_init(
    src_path: Optional[str], workload_modules: Sequence[str] = ()
) -> None:
    """Make the in-tree package importable in spawned workers.

    ``workload_modules`` are the modules whose import re-registers any
    custom (non built-in) workloads swept by this exploration: under the
    ``spawn`` start method each worker holds a fresh registry, so the
    registrations must be replayed before points resolve.  Import failures
    are left to surface naturally as per-point UnknownWorkloadError records.
    """
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    import contextlib
    import importlib

    for module in workload_modules:
        with contextlib.suppress(ImportError):
            importlib.import_module(module)


def _repo_src_path() -> Optional[str]:
    path = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    return path if os.path.isdir(path) else None


def _make_pool(workers: int, points: Sequence[DesignPoint]) -> ProcessPoolExecutor:
    """An executor whose workers can resolve every workload of ``points``.

    Worker processes spawn lazily (on first submit), so creating the pool
    up front costs nothing on fully-cached runs.
    """
    from ..workloads import source_modules

    workload_modules = source_modules({p.workload for p in points})
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(_repo_src_path(), workload_modules),
    )


def _prefix_group_order(point: DesignPoint) -> tuple:
    """Sort key grouping points that share compilation prefixes.

    Points of the same workload, platform and canonical-spec prefix land in
    adjacent ``pool.map`` chunks, so one worker compiles the shared prefix
    and its chunk-mates resume from the just-written snapshot instead of
    racing other workers to compile it.  Canonical specs sort stage-by-
    stage from the front, so the longest shared prefixes cluster tightest.
    The final record order is restored from the batch order afterwards, so
    grouping never changes any output — only which process compiles what.
    """
    return (point.workload, point.platform, point.canonical_spec(), point.key())


def _merge_ir_stats(records: List[Dict]) -> Dict[str, int]:
    """Pop per-record ``"ir_cache"`` counters and sum them.

    The counters are *popped*, not copied: records (and therefore frontier
    JSON, result files and fixed-seed comparisons) stay byte-identical with
    the IR cache on or off; reuse statistics surface only through
    :class:`~repro.evaluation.reporting.ExplorationResult` aggregates.
    """
    totals: Dict[str, int] = {}
    for record in records:
        stats = record.pop("ir_cache", None)
        if not isinstance(stats, dict):
            continue
        for name, value in stats.items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def _merge_telemetry(records: List[Dict]) -> None:
    """Pop per-record worker telemetry and fold it into the live session.

    Popped (never copied), exactly like :func:`_merge_ir_stats`: records —
    and therefore frontier JSON and fixed-seed comparisons — stay
    byte-identical whether tracing is on or off.
    """
    for record in records:
        payload = record.pop("telemetry", None)
        if payload:
            obs.ingest(payload)


def _evaluate_batch(
    points: Sequence[DesignPoint],
    workers: int,
    resolved_cache: Optional[str],
    chunksize: int,
    resume: bool = False,
    pool: Optional[ProcessPoolExecutor] = None,
    fidelity: str = DEFAULT_FIDELITY,
    ir_cache_dir: Optional[str] = None,
) -> tuple:
    """Evaluate one batch of points at one fidelity level; records come
    back in batch order.

    Cache hits replay in the parent process (no pool startup on warm
    batches); the rest fan out across ``pool`` (or a batch-local pool when
    none is shared).  Returns ``(records, skipped, ir_stats)`` where
    ``skipped`` counts uncached points a ``resume`` run left unevaluated
    and ``ir_stats`` sums the batch's IR-snapshot reuse counters (empty
    when the IR cache is off).
    """
    records: List[Dict] = []
    pending: List[DesignPoint] = []
    if resolved_cache:
        for point in points:
            cached = _replay_cached(point, resolved_cache, fidelity, ir_cache_dir)
            if cached is not None:
                records.append(cached)
            else:
                pending.append(point)
    else:
        pending = list(points)
    skipped = 0
    if resume:
        skipped = len(pending)
        pending = []
    if ir_cache_dir:
        pending.sort(key=_prefix_group_order)
    if workers <= 1 or len(pending) <= 1:
        records.extend(
            evaluate_point(point, resolved_cache, fidelity, ir_cache_dir)
            for point in pending
        )
    elif pending:
        # Serialize the current span context so worker-side spans stitch
        # under the orchestrating span (None while tracing is disabled).
        trace_ctx = obs.propagation_context()

        def fan_out(executor: ProcessPoolExecutor) -> None:
            records.extend(
                executor.map(
                    evaluate_point,
                    pending,
                    [resolved_cache] * len(pending),
                    [fidelity] * len(pending),
                    [ir_cache_dir] * len(pending),
                    [trace_ctx] * len(pending),
                    chunksize=max(1, chunksize),
                )
            )

        if pool is not None:
            fan_out(pool)
        else:
            with _make_pool(workers, pending) as local_pool:
                fan_out(local_pool)
    _merge_telemetry(records)
    ir_stats = _merge_ir_stats(records)
    # ``pool.map`` already preserves order; re-sort by the batch point order
    # (prefix grouping reorders evaluation) so downstream consumers can
    # rely on it.
    order = {point.key(): index for index, point in enumerate(points)}
    records.sort(key=lambda r: order.get(r.get("point_key"), len(order)))
    return records, skipped, ir_stats


def _by_workload(records: Sequence[Dict]) -> Dict[str, List[Dict]]:
    groups: Dict[str, List[Dict]] = {}
    for record in records:
        groups.setdefault(str(record.get("workload", "")), []).append(record)
    return groups


def _grouped_frontier(
    scored: Sequence[Dict], objectives: Sequence[str], group_by_workload: bool
) -> List[Dict]:
    if not group_by_workload:
        return pareto_frontier(scored, objectives)
    groups = _by_workload(scored)
    frontier: List[Dict] = []
    for name in sorted(groups):
        frontier.extend(pareto_frontier(groups[name], objectives))
    return frontier


def _hv_references(
    scored: Sequence[Dict], objectives: Sequence[str], group_by_workload: bool
) -> Dict[str, Optional[tuple]]:
    """Per-group hypervolume reference points derived from ``scored``."""
    if not group_by_workload:
        return {"": hypervolume_reference(scored, objectives)}
    groups = _by_workload(scored)
    return {
        name: hypervolume_reference(groups[name], objectives) for name in groups
    }


def _grouped_hypervolume(
    scored: Sequence[Dict],
    objectives: Sequence[str],
    group_by_workload: bool,
    references: Dict[str, Optional[tuple]],
) -> float:
    """Summed per-group hypervolume against fixed per-group references.

    The references come from :func:`_hv_references` over the *final* record
    set, so per-generation values within a run form a comparable
    (non-decreasing) trajectory; cross-run comparisons should still derive
    one shared reference externally.
    """
    if not group_by_workload:
        reference = references.get("")
        return hypervolume(scored, objectives, reference) if reference else 0.0
    groups = _by_workload(scored)
    total = 0.0
    for name in sorted(groups):
        reference = references.get(name)
        if reference is not None:
            total += hypervolume(groups[name], objectives, reference)
    return total


def explore(
    space: Union[DesignSpace, Sequence[DesignPoint]],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    chunksize: int = 4,
    group_by_workload: bool = True,
    resume: bool = False,
    strategy=None,
    budget: Optional[int] = None,
    seed: int = 0,
    strategy_options: Optional[Dict] = None,
    fidelity: str = DEFAULT_FIDELITY,
    promote_top: Optional[float] = None,
    patience: Optional[int] = None,
    ir_cache: bool = False,
    ir_cache_dir: Optional[str] = None,
    prefilter: bool = False,
    validate_frontier: bool = False,
) -> ExplorationResult:
    """Evaluate ``space`` (fully or via a search strategy) and extract the
    Pareto frontier.

    ``workers <= 1`` runs serially in-process (easier profiling/debugging);
    anything larger uses a :class:`ProcessPoolExecutor`.  With caching on
    (the default) each evaluated point is persisted under ``cache_dir`` (or
    the default cache root), making overlapping sweeps and re-runs nearly
    free.

    ``strategy`` picks an adaptive search instead of the full sweep: a
    registered name (``"exhaustive"``, ``"random"``, ``"genetic"``,
    ``"anneal"``) or a :class:`~repro.dse.search.SearchStrategy` instance.
    ``budget`` caps the number of distinct points evaluated (default: the
    space size), ``seed`` fixes the search trajectory, and
    ``strategy_options`` passes strategy-specific knobs (``population``,
    ``mutation_rate``, ``generations``, ``chains``, ...).  Per-generation
    progress lands in ``ExplorationResult.generations``.

    With ``resume`` the sweep never compiles: points already in the QoR
    cache stream straight into the result and every uncached point is
    *skipped* (counted in ``ExplorationResult.skipped``) — the way to turn
    an interrupted sweep's partial cache into an output JSON without
    recomputation.  ``resume`` is a replay of the *whole* space, so it is
    incompatible with ``strategy``.

    ``fidelity`` picks the top QoR level of a multi-fidelity run (see
    :mod:`repro.dse.fidelity`).  With ``fidelity="simulate"`` every point is
    still evaluated at the cheap analytic level first; each generation (or
    once, after a full sweep) the top ``promote_top`` fraction — frontier
    members first, ranked by hypervolume contribution — is re-evaluated by
    the dataflow simulator, strategies steer on the best-available record
    per point, and the final frontier is re-ranked on the
    highest-fidelity records.  Promotions do not consume ``budget`` (budget
    counts distinct *designs*, not evaluations), and both levels cache
    under fidelity-tagged keys, so warm reruns do zero compiles and zero
    simulations.

    ``patience`` adds hypervolume-based early stopping to an adaptive
    search: the run ends once ``patience`` consecutive generations fail to
    improve the (best-fidelity) frontier hypervolume.

    With ``group_by_workload`` (the default) the frontier is the union of
    per-workload frontiers — latency trade-offs only make sense between
    designs of the *same* computation; set it to False for a single global
    frontier when sweeping one workload under many configurations.

    ``ir_cache`` turns on the stage-boundary IR snapshot cache
    (:mod:`repro.compiler.ircache`): each generation's points are grouped
    by longest shared canonical-spec prefix so the shared prefix compiles
    once per worker batch and everything behind it resumes from printed-IR
    snapshots under ``ir_cache_dir`` (default ``~/.cache/repro/ir`` or
    ``$REPRO_IR_CACHE``).  Fixed-seed results are byte-identical with the
    cache on, off, cold or warm, for any worker count; reuse shows up only
    in ``ExplorationResult.prefix_hits`` / ``stages_skipped`` and the
    per-generation ``reuse`` column.  The cache trusts registry workload
    ids as identities, so re-registering a *different* workload under an
    id cached earlier requires clearing the cache directory.

    ``prefilter`` runs the static feasibility check of
    :mod:`repro.analysis.prefilter` over the (deduplicated) input points
    before any evaluation: points whose pipeline cannot produce a QoR
    record, or whose structural prefix the analyzer flags with an
    error-severity finding (deadlock, memory race), are dropped into
    ``ExplorationResult.rejected`` instead of being evaluated.  Rejected
    points never consume ``budget`` (adaptive searches draw candidates
    from the filtered pool), and the records of feasible points are
    byte-identical to a run without the filter.

    ``validate_frontier`` translation-validates every frontier member
    before it is reported: the point's full pipeline re-runs with the
    reference interpreter checking each stage boundary
    (:mod:`repro.analysis.tv`).  Validated records gain a ``validation``
    summary; points whose pipeline changed program behavior are dropped
    from the frontier into ``ExplorationResult.validation_failures`` —
    a promoted Pareto point is never reported on miscompiled IR.
    """
    points: List[DesignPoint] = []
    seen_keys = set()
    for point in space:
        # Dedupe by identity up front: duplicate points would collapse into
        # one slot of the order-restoring sort and interleave cached/fresh
        # results nondeterministically.
        key = point.key()
        if key not in seen_keys:
            seen_keys.add(key)
            points.append(point)
    rejected: List[Dict] = []
    if prefilter:
        from ..analysis.prefilter import filter_points

        points, rejected = filter_points(points)
    unknown = [name for name in objectives if name not in SUMMARY_METRICS]
    if unknown or not list(objectives):
        raise ValueError(
            f"unknown objective(s) {unknown or '(none)'}; "
            f"choose from {SUMMARY_METRICS}"
        )
    if resume and not use_cache:
        raise ValueError("resume=True requires the QoR cache (use_cache=True)")
    if resume and strategy is not None:
        raise ValueError("resume replays the whole space; drop strategy=...")
    if strategy is None and (budget is not None or seed or strategy_options):
        raise ValueError(
            "budget/seed/strategy_options have no effect without strategy=... "
            "(the full sweep evaluates every point)"
        )
    level = get_fidelity(str(fidelity))
    base_rank = get_fidelity(DEFAULT_FIDELITY).rank
    if level.rank < base_rank:
        raise ValueError(
            f"fidelity {level.name!r} is below the base level "
            f"{DEFAULT_FIDELITY!r}; promotion races upward only"
        )
    multi_fidelity = level.rank > base_rank
    if promote_top is not None and not multi_fidelity:
        raise ValueError(
            "promote_top has no effect at the base fidelity; "
            "pass fidelity='simulate' (or another higher level) with it"
        )
    if resume and multi_fidelity:
        raise ValueError(
            "resume replays base-fidelity cache entries only; drop fidelity=..."
        )
    policy: Optional[PromotionPolicy] = None
    if multi_fidelity:
        policy = PromotionPolicy(
            target=level.name,
            promote_top=(
                DEFAULT_PROMOTE_TOP if promote_top is None else float(promote_top)
            ),
        )
    if patience is not None:
        if strategy is None:
            raise ValueError(
                "patience stops an adaptive search early; it needs strategy=..."
            )
        patience = int(patience)
        if patience < 1:
            raise ValueError(f"patience must be >= 1 (got {patience})")
    resolved_cache: Optional[str] = None
    if use_cache:
        resolved_cache = str(cache_dir) if cache_dir else str(QoRCache().root)
    resolved_ir_cache: Optional[str] = None
    if ir_cache:
        resolved_ir_cache = (
            str(ir_cache_dir) if ir_cache_dir else str(default_ir_cache_dir())
        )
    elif ir_cache_dir:
        raise ValueError("ir_cache_dir has no effect with ir_cache=False")
    #: Run-level metrics: ``ir_cache.*`` counters aggregate the per-record
    #: dumps popped by :func:`_merge_ir_stats`; the ``prefix_hits`` /
    #: ``stages_skipped`` result fields are views over this registry.
    run_metrics = MetricsRegistry()

    def absorb_ir_stats(stats: Dict[str, int]) -> None:
        for name, value in stats.items():
            run_metrics.inc(f"ir_cache.{name}", value)

    started = time.perf_counter()
    explore_span = obs.span(
        "dse.explore",
        cat="dse",
        points=len(points),
        workers=max(1, workers),
        fidelity=level.name,
    )
    strategy_name: Optional[str] = None
    generations: List[Dict] = []
    stopped_early = False
    if strategy is None:
        # Share one pool between the base sweep and its promotion pass so
        # the workers (and their import replay) are paid for once.
        sweep_pool = (
            _make_pool(workers, points)
            if workers > 1 and policy is not None
            else None
        )
        try:
            records, skipped, batch_ir = _evaluate_batch(
                points, workers, resolved_cache, chunksize, resume,
                pool=sweep_pool, ir_cache_dir=resolved_ir_cache,
            )
            absorb_ir_stats(batch_ir)
            if policy is not None:
                scored = [r for r in records if "error" not in r]
                by_key = {point.key(): point for point in points}
                promote_keys = policy.select(
                    scored, scored, objectives, group_by_workload
                )
                promote_points = [
                    by_key[key] for key in promote_keys if key in by_key
                ]
                with obs.span(
                    "dse.promote",
                    cat="dse",
                    points=len(promote_points),
                    fidelity=level.name,
                ):
                    promoted_records, _, promote_ir = _evaluate_batch(
                        promote_points,
                        workers,
                        resolved_cache,
                        chunksize,
                        pool=sweep_pool,
                        fidelity=level.name,
                        ir_cache_dir=resolved_ir_cache,
                    )
                absorb_ir_stats(promote_ir)
                records.extend(promoted_records)
        finally:
            if sweep_pool is not None:
                sweep_pool.shutdown()
    else:
        from .search import SearchStrategy, make_strategy

        if isinstance(strategy, SearchStrategy):
            if budget is not None or seed or strategy_options:
                raise ValueError(
                    "budget/seed/strategy_options belong to the "
                    "SearchStrategy constructor when explore() is handed "
                    "an instance"
                )
            if tuple(strategy.objectives) != tuple(objectives):
                raise ValueError(
                    f"strategy steers on objectives {strategy.objectives} "
                    f"but explore() would report on {tuple(objectives)}; "
                    "pass the same objectives to both"
                )
            searcher = strategy
        else:
            searcher = make_strategy(
                str(strategy),
                points,
                objectives=objectives,
                budget=budget,
                seed=seed,
                options=strategy_options,
            )
        strategy_name = searcher.name
        budget = searcher.budget
        records = []
        skipped = 0
        evaluated_designs = 0
        stall = 0
        #: Index into ``records`` after each generation, for the final
        #: fixed-reference hypervolume pass (promotions interleave, so the
        #: design count no longer addresses the record list).
        boundaries: List[int] = []
        # One shared pool across generations: the per-batch fan-out would
        # otherwise respawn workers (and replay their imports) every
        # generation.  Strategies never mutate workload axes, so the
        # space's workload set covers every batch.
        pool = _make_pool(workers, points) if workers > 1 else None
        try:
            while evaluated_designs < budget:
                batch = searcher.propose(budget - evaluated_designs)
                if not batch:
                    break
                batch = batch[: budget - evaluated_designs]
                generation_span = obs.span(
                    "dse.generation",
                    cat="dse",
                    generation=len(generations),
                    batch=len(batch),
                )
                batch_records, _, batch_ir = _evaluate_batch(
                    batch, workers, resolved_cache, chunksize, pool=pool,
                    ir_cache_dir=resolved_ir_cache,
                )
                absorb_ir_stats(batch_ir)
                searcher.observe(batch_records)
                previous_boundary = len(records)
                records.extend(batch_records)
                evaluated_designs += len(batch_records)
                promoted_records: List[Dict] = []
                if policy is not None:
                    context = [
                        r
                        for r in best_fidelity_records(records)
                        if "error" not in r
                    ]
                    promote_keys = policy.select(
                        [r for r in batch_records if "error" not in r],
                        context,
                        objectives,
                        group_by_workload,
                    )
                    by_key = {point.key(): point for point in batch}
                    promote_points = [
                        by_key[key] for key in promote_keys if key in by_key
                    ]
                    with obs.span(
                        "dse.promote",
                        cat="dse",
                        points=len(promote_points),
                        fidelity=level.name,
                    ):
                        promoted_records, _, promote_ir = _evaluate_batch(
                            promote_points,
                            workers,
                            resolved_cache,
                            chunksize,
                            pool=pool,
                            fidelity=level.name,
                            ir_cache_dir=resolved_ir_cache,
                        )
                    absorb_ir_stats(promote_ir)
                    batch_ir = {
                        name: batch_ir.get(name, 0) + promote_ir.get(name, 0)
                        for name in set(batch_ir) | set(promote_ir)
                    }
                    searcher.observe(promoted_records, refinement=True)
                    records.extend(promoted_records)
                base_by_key = {r.get("point_key"): r for r in batch_records}
                disagreement = max(
                    (
                        relative_disagreement(
                            base_by_key[r.get("point_key")].get("summary", {}),
                            r.get("summary", {}),
                            objectives,
                        )
                        for r in promoted_records
                        if "error" not in r and r.get("point_key") in base_by_key
                    ),
                    default=0.0,
                )
                scored_so_far = [
                    r for r in best_fidelity_records(records) if "error" not in r
                ]
                generations.append(
                    {
                        "generation": len(generations),
                        "evaluated": len(batch_records),
                        "promoted": len(promoted_records),
                        "max_disagreement": disagreement,
                        "total_evaluations": evaluated_designs,
                        "frontier_size": len(
                            _grouped_frontier(
                                scored_so_far, objectives, group_by_workload
                            )
                        ),
                        "prefix_hits": batch_ir.get("prefix_hits", 0),
                        "stages_skipped": batch_ir.get("stages_skipped", 0),
                    }
                )
                generation_span.set_attr(
                    evaluated=len(batch_records), promoted=len(promoted_records)
                )
                generation_span.finish()
                boundaries.append(len(records))
                if patience is not None:
                    # Online improvement check: both prefixes are scored
                    # against references derived from the *current* record
                    # set, so the comparison is apples-to-apples even as
                    # the observed objective ranges expand.
                    current_refs = _hv_references(
                        scored_so_far, objectives, group_by_workload
                    )
                    volume_now = _grouped_hypervolume(
                        scored_so_far, objectives, group_by_workload, current_refs
                    )
                    previous_scored = [
                        r
                        for r in best_fidelity_records(records[:previous_boundary])
                        if "error" not in r
                    ]
                    volume_before = _grouped_hypervolume(
                        previous_scored, objectives, group_by_workload, current_refs
                    )
                    improved = volume_now > volume_before + 1e-9 * max(
                        abs(volume_now), 1.0
                    )
                    stall = 0 if improved else stall + 1
                    if stall >= patience:
                        stopped_early = True
                        break
        finally:
            if pool is not None:
                pool.shutdown()
        # Hypervolume per generation is filled in against references fixed
        # by the final record set — re-deriving the reference mid-run would
        # make consecutive rows incomparable (it expands whenever a new
        # worst extreme is observed).
        final_scored = [
            r for r in best_fidelity_records(records) if "error" not in r
        ]
        references = _hv_references(final_scored, objectives, group_by_workload)
        for generation, boundary in zip(generations, boundaries):
            prefix = [
                r
                for r in best_fidelity_records(records[:boundary])
                if "error" not in r
            ]
            generation["hypervolume"] = _grouped_hypervolume(
                prefix, objectives, group_by_workload, references
            )
    elapsed = time.perf_counter() - started
    explore_span.set_attr(records=len(records), elapsed_seconds=round(elapsed, 6))
    explore_span.finish()

    errors = [r for r in records if "error" in r]
    # Re-rank on the most trusted record per design point: promoted points
    # enter the frontier with their simulator-fidelity QoR.
    scored = [r for r in best_fidelity_records(records) if "error" not in r]
    frontier = _grouped_frontier(scored, objectives, group_by_workload)
    validation_failures: List[Dict] = []
    if validate_frontier:
        frontier, validation_failures = _validate_frontier(frontier, points)
    # The compile/simulate/cache-probe time split of this run, when tracing
    # is on (None otherwise, keeping result files byte-identical to seed).
    telemetry = obs.telemetry_summary() if obs.enabled() else None
    return ExplorationResult(
        records=records,
        frontier=frontier,
        objectives=tuple(objectives),
        workers=max(1, workers),
        elapsed_seconds=elapsed,
        cache_hits=sum(1 for r in records if r.get("cached")),
        cache_misses=sum(1 for r in records if not r.get("cached")),
        errors=errors,
        skipped=skipped,
        strategy=strategy_name,
        budget=budget if strategy_name is not None else None,
        generations=generations,
        fidelity=level.name,
        promote_top=policy.promote_top if policy is not None else None,
        stopped_early=stopped_early,
        prefix_hits=int(run_metrics.value("ir_cache.prefix_hits")),
        stages_skipped=int(run_metrics.value("ir_cache.stages_skipped")),
        rejected=rejected,
        validation_failures=validation_failures,
        telemetry=telemetry,
    )


def _validate_frontier(
    frontier: List[Dict], points: Sequence[DesignPoint]
) -> Tuple[List[Dict], List[Dict]]:
    """Semantics-check every frontier record's pipeline before reporting.

    Returns ``(kept frontier, failure records)``.  Records whose design
    point cannot be resolved (e.g. streamed in from a foreign cache) pass
    through unvalidated rather than being silently dropped.
    """
    from ..analysis.tv import validate_point

    by_key = {point.key(): point for point in points}
    kept: List[Dict] = []
    failures: List[Dict] = []
    for record in frontier:
        point = by_key.get(str(record.get("point_key", "")))
        if point is None:
            kept.append(record)
            continue
        report = validate_point(point)
        record["validation"] = {
            "ok": report.ok,
            "outcomes": report.outcomes(),
        }
        if report.ok:
            kept.append(record)
            continue
        failures.append(
            {
                "point_key": record.get("point_key"),
                "label": record.get("label"),
                "workload": record.get("workload"),
                "error": report.error,
                "mismatches": [
                    check.to_dict() for check in report.mismatches
                ],
            }
        )
    return kept, failures
