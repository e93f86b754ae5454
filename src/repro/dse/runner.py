"""The parallel design-space exploration engine.

``explore`` fans a :class:`~repro.dse.space.DesignSpace` out across worker
processes with :mod:`concurrent.futures`.  Each worker rebuilds its
workload module from the point's picklable identity fields, resolved
through the workload registry (IR does not cross process boundaries),
consults the content-hash
:class:`~repro.dse.cache.QoRCache`, and only runs the full HIDA pipeline on
a cache miss.  Results come back as plain JSON-safe record dicts, so the
orchestrating process never unpickles IR either.

Determinism: records are re-ordered to the input point order after the
parallel map, and the Pareto extraction sorts by objective vector, so the
frontier is identical for any worker count.

Every run evaluates one batch: the whole space for a full sweep, or the
first ``budget`` points of a search strategy's order
(:mod:`repro.dse.search`).  The batch — plus its promotion pass on a
multi-fidelity run (:mod:`repro.dse.fidelity`) — goes through one
cache-aware fan-out.  The settings are the fields of
:class:`~repro.dse.config.ExploreConfig`; evaluating a single point is
:mod:`repro.dse.evaluate`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from .config import ExplorationResult, ExploreConfig
from .evaluate import evaluate_point, open_caches, probe_point
from .fidelity import (
    DEFAULT_FIDELITY,
    SimulationInput,
    best_fidelity_records,
    select_promotions,
)
from .pareto import pareto_frontier
from .search import search_points
from .sharing import SharedPrefixes
from .space import DesignPoint, DesignSpace

__all__ = ["evaluate_point", "explore"]


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


def _untraced(probed: Optional[tuple]) -> bool:
    """Whether a pending entry's parent probe left it no traced module."""
    return probed is None or probed[1][1] is None


def _merge_ir_stats(records: List[Dict]) -> Counter:
    """Pop per-record ``"ir_cache"`` counters and sum them.

    The counters are *popped*, not copied: records (and therefore frontier
    JSON, result files and fixed-seed comparisons) stay byte-identical with
    the IR cache on or off; reuse statistics surface only through
    :class:`~repro.dse.config.ExplorationResult` aggregates.
    """
    totals: Counter = Counter()
    for record in records:
        stats = record.pop("ir_cache", None)
        if isinstance(stats, dict):
            totals.update(stats)
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
    fidelity: str,
    *,
    pool: Optional[ProcessPoolExecutor],
    chunksize: int,
    cache_dir: Optional[str],
    ir_cache_dir: Optional[str],
    resume: bool = False,
    bases: Optional[Dict[str, SimulationInput]] = None,
) -> tuple:
    """Evaluate one batch of points at one fidelity level; records come
    back in batch order.

    Cache hits replay in the parent process (no worker startup on warm
    batches), and so do points in ``bases`` (point key -> the base
    compile's :class:`~repro.dse.fidelity.SimulationInput`), with no
    compile; the rest fan out across ``pool`` (serially in-process when
    there is none).  An in-process batch with the IR cache off compiles
    each prefix its points share once (:mod:`repro.dse.sharing`).
    Returns ``(records, skipped, ir_stats, inputs)``: uncached points a
    ``resume`` run left unevaluated, the batch's IR-snapshot reuse counters
    (empty when the IR cache is off) and every compiled point's simulation
    input by point key.
    """
    records: List[Dict] = []
    #: ``(point, the parent's probe_point miss or None)``.
    pending: List[tuple] = []
    if cache_dir:
        qor_cache, ir_cache = open_caches(cache_dir, ir_cache_dir)  # per batch
        for point in points:
            started = time.perf_counter()
            record, miss = probe_point(
                point, qor_cache, fidelity, ir_cache, side="parent"
            )
            if record.get("cached"):
                record["eval_seconds"] = time.perf_counter() - started
                records.append(record)
            else:
                # An in-process evaluation continues from the miss; a probe
                # failure falls through to a full one, which reports it.
                pending.append((point, (record, miss) if miss is not None else None))
    else:
        pending = [(point, None) for point in points]
    skipped = 0
    if resume:
        skipped = len(pending)
        pending = []
    if ir_cache_dir:
        pending.sort(key=lambda entry: _prefix_group_order(entry[0]))
    bases = bases or {}
    shared = None
    if pool is None and not ir_cache_dir:
        # In-process with no IR cache: compile each shared prefix once.
        shared = SharedPrefixes.plan(
            [point for point, _ in pending if point.key() not in bases]
        )
        if shared is not None:
            # Points sharing prefixes run back to back.  A point the parent
            # probe traced (the first of its workload) leads, so its module
            # starts the shared prefixes instead of a second trace.
            pending.sort(
                key=lambda entry: (_untraced(entry[1]), shared.order(entry[0]))
            )
    evaluate = functools.partial(
        evaluate_point,
        cache_dir=cache_dir,
        fidelity=fidelity,
        ir_cache_dir=ir_cache_dir,
    )
    if pool is not None and len(pending) > 1:
        # Only points that must compile fan out.  Serialize the current span
        # context so worker-side spans stitch under the orchestrating span
        # (None while tracing is disabled).  Workers probe for themselves: a
        # traced module cannot be pickled.
        remote = [point for point, _ in pending if point.key() not in bases]
        pending = [entry for entry in pending if entry[0].key() in bases]
        traced = functools.partial(evaluate, trace=obs.propagation_context())
        records.extend(pool.map(traced, remote, chunksize=max(1, chunksize)))
    for point, probed in pending:
        held = shared if shared is not None and shared.covers(point) else None
        records.append(
            evaluate(point, probed=probed, base=bases.get(point.key()), shared=held)
        )
        if held is not None:
            held.done(point)
    _merge_telemetry(records)
    ir_stats = _merge_ir_stats(records)
    inputs = {r["point_key"]: r.pop("simulation_input") for r in records if "simulation_input" in r}
    # ``pool.map`` already preserves order; re-sort by the batch point order
    # (prefix grouping reorders evaluation) so downstream consumers can
    # rely on it.
    order = {point.key(): index for index, point in enumerate(points)}
    records.sort(key=lambda r: order.get(r.get("point_key"), len(order)))
    return records, skipped, ir_stats, inputs


def _best_scored(records: Sequence[Dict]) -> List[Dict]:
    """The most trusted record per design point, errored points dropped."""
    return [r for r in best_fidelity_records(records) if "error" not in r]


def _by_workload(records: Sequence[Dict]) -> Dict[str, List[Dict]]:
    groups: Dict[str, List[Dict]] = {}
    for record in records:
        groups.setdefault(str(record.get("workload", "")), []).append(record)
    return groups


def _frontier(scored: Sequence[Dict], objectives: Sequence[str]) -> List[Dict]:
    """Union of per-workload Pareto frontiers, workloads in name order."""
    groups = _by_workload(scored)
    return [
        record
        for name in sorted(groups)
        for record in pareto_frontier(groups[name], objectives)
    ]


def explore(
    space: Union[DesignSpace, Sequence[DesignPoint]],
    config: Optional[ExploreConfig] = None,
    **overrides,
) -> ExplorationResult:
    """Evaluate ``space`` (fully or a search strategy's budget of it) and
    extract the Pareto frontier — the union of per-workload frontiers.

    Every setting is a field of :class:`~repro.dse.config.ExploreConfig`
    (documented there); ``overrides`` are ``dataclasses.replace`` on
    ``config`` (default: ``ExploreConfig()``), so
    ``explore(space, workers=8, strategy="random", budget=64)`` is the
    short spelling.  Invalid combinations raise ``ValueError`` before any
    point is evaluated.
    """
    if config is None:
        config = ExploreConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
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
    if config.prefilter:
        from ..analysis.prefilter import filter_points

        points, rejected = filter_points(points)
    objectives = config.objectives
    fidelity = str(config.fidelity)
    promote_top = config.promotion_fraction()
    searching = config.strategy is not None
    budget = len(points) if config.budget is None else config.budget
    batch = (
        search_points(points, config.strategy, budget, config.seed)
        if searching
        else points
    )

    started = time.perf_counter()
    explore_span = obs.span(
        "dse.explore",
        cat="dse",
        points=len(points),
        workers=max(1, config.workers),
        fidelity=fidelity,
    )
    records: List[Dict] = []
    #: Run totals of the per-record ``ir_cache`` counters.
    ir_totals: Counter = Counter()
    skipped = 0
    # One pool for the batch and its promotion pass: workers (and their
    # import replay) are paid for once, and spawn lazily, so a fully-cached
    # run never starts one.
    pool = _make_pool(config.workers, batch) if config.workers > 1 else None
    evaluate = functools.partial(
        _evaluate_batch,
        pool=pool,
        chunksize=config.chunksize,
        cache_dir=config.qor_cache_root(),
        ir_cache_dir=config.ir_cache_root(),
    )
    try:
        if batch:
            # Simulation inputs live until the promotion pass.
            records, skipped, ir_totals, inputs = evaluate(
                batch, DEFAULT_FIDELITY, resume=config.resume
            )
            if promote_top is not None:
                by_key = {point.key(): point for point in batch}
                promote_points = [
                    by_key[key]
                    for key in select_promotions(records, promote_top, objectives)
                ]
                with obs.span(
                    "dse.promote",
                    cat="dse",
                    points=len(promote_points),
                    fidelity=fidelity,
                ):
                    promoted, _, promote_ir, _ = evaluate(
                        promote_points, fidelity, bases=inputs
                    )
                ir_totals.update(promote_ir)
                records += promoted
            del inputs
    finally:
        if pool is not None:
            pool.shutdown()
    scored = _best_scored(records)
    elapsed = time.perf_counter() - started
    explore_span.set_attr(records=len(records), elapsed_seconds=round(elapsed, 6))
    explore_span.finish()

    # Ranked on the most trusted record per design point: promoted points
    # enter the frontier with their simulator-fidelity QoR.
    frontier = _frontier(scored, objectives)
    validation_failures: List[Dict] = []
    if config.validate_frontier:
        frontier, validation_failures = _validate_frontier(frontier, points)
    return ExplorationResult(
        records=records,
        frontier=frontier,
        elapsed_seconds=elapsed,
        skipped=skipped,
        budget=budget if searching else None,
        prefix_hits=ir_totals["prefix_hits"],
        stages_skipped=ir_totals["stages_skipped"],
        rejected=rejected,
        validation_failures=validation_failures,
        # The compile/simulate/cache-probe time split of this run, when
        # tracing is on (None otherwise: result files stay byte-identical).
        telemetry=obs.telemetry_summary() if obs.enabled() else None,
        config=config,
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
