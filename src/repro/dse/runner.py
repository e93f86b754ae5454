"""The parallel design-space exploration engine.

``explore`` splits a :class:`~repro.dse.space.DesignSpace` into prefix
groups, one per workload and platform, each compiling the prefixes its
points share once (:mod:`repro.dse.sharing`), and runs each group as one
task of a :mod:`concurrent.futures` worker pool (in-process without a pool
or with one group).  A worker rebuilds workload modules from the points'
picklable identity fields (IR does not cross process boundaries),
consults the content-hash :class:`~repro.dse.cache.QoRCache`, and only
runs the full HIDA pipeline on a cache miss.  Records come back as plain
JSON-safe dicts.

Determinism: records are re-ordered to the input point order after the
groups run, and the Pareto extraction sorts by objective vector, so the
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
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from .config import ExplorationResult, ExploreConfig
from .evaluate import evaluate_point, open_caches, point_record, probe_point
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


def _pop_side_channels(records: List[Dict]) -> tuple:
    """Pop what records carry for the run rather than as results.

    Worker telemetry folds into the live session, ``"ir_cache"`` counters
    sum into ``ir_stats`` and simulation inputs key by point into
    ``inputs``; returns ``(ir_stats, inputs)``.  Popped, never copied:
    records (and so frontier JSON, result files and fixed-seed comparisons)
    stay byte-identical with tracing or the IR cache on or off.
    """
    ir_stats: Counter = Counter()
    inputs: Dict[str, SimulationInput] = {}
    for record in records:
        telemetry = record.pop("telemetry", None)
        if telemetry:
            obs.ingest(telemetry)
        stats = record.pop("ir_cache", None)
        if isinstance(stats, dict):
            ir_stats.update(stats)
        if "simulation_input" in record:
            inputs[record["point_key"]] = record.pop("simulation_input")
    return ir_stats, inputs


def _evaluate_group(
    points: Sequence[DesignPoint],
    probes: Optional[Dict[str, tuple]] = None,
    **options,
) -> List[Dict]:
    """Evaluate one prefix group back to back (``options`` are
    :func:`evaluate_point`'s keywords).

    The points share a workload and a platform, so each prefix they share
    compiles once: held by a :class:`SharedPrefixes` plan with the IR cache
    off (which also builds each point's compiler and keys once), or
    snapshotted with it on (points sorted by canonical spec).
    ``probes`` maps point keys to the parent's :func:`probe_point` misses;
    a worker probes for itself, because a traced module cannot be pickled.
    """
    probes = probes or {}
    shared = None
    if options.get("ir_cache_dir"):
        points = sorted(points, key=lambda point: (point.canonical_spec(), point.key()))
    else:
        shared = SharedPrefixes(points)
        # A point the parent probe traced leads, so its module starts the
        # shared prefixes instead of a second trace.
        traced = {key for key, (_, (_, module)) in probes.items() if module is not None}
        points = sorted(points, key=lambda p: (p.key() not in traced, shared.order(p)))
    records: List[Dict] = []
    for point in points:
        records.append(
            evaluate_point(point, probed=probes.get(point.key()), shared=shared, **options)
        )
        if shared is not None:
            shared.done(point)
    return records


def _fan_out(pool: ProcessPoolExecutor, groups: List[List[DesignPoint]], **options) -> List[Dict]:
    """Run each prefix group as one pool task, worker spans stitched under
    the current span.  The points of every group a dead worker never
    returned come back as error records."""
    run = functools.partial(_evaluate_group, trace=obs.propagation_context(), **options)
    records: List[Dict] = []
    returned = 0
    try:
        for group_records in pool.map(run, groups):
            records.extend(group_records)
            returned += 1
    except BrokenProcessPool as exc:
        lost = [point for group in groups[returned:] for point in group]
        obs.event("dse.worker-died", cat="dse", points=len(lost))
        error = {"error": f"worker died before returning this point: {exc}", "cached": False}
        records += [{**point_record(point, options["fidelity"]), **error} for point in lost]
    return records


def _evaluate_batch(
    points: Sequence[DesignPoint],
    fidelity: str,
    *,
    pool: Optional[ProcessPoolExecutor],
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
    compile.  Every other point joins the prefix group of its workload and
    platform (prefixes never cross either).  Returns ``(records, skipped,
    ir_stats, inputs)``: uncached points a ``resume`` run left unevaluated,
    the IR-snapshot reuse counters and compiled points' simulation inputs.
    """
    records: List[Dict] = []
    #: Point key -> the parent's ``probe_point`` miss.
    probes: Dict[str, tuple] = {}
    pending: List[DesignPoint] = [] if cache_dir else list(points)
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
                continue
            # An in-process evaluation continues from the miss; a probe
            # failure falls through to a full one, which reports it.
            pending.append(point)
            if miss is not None:
                probes[point.key()] = (record, miss)
    skipped = 0
    if resume:
        skipped, pending = len(pending), []
    bases = bases or {}
    options: Dict[str, Any] = dict(
        cache_dir=cache_dir, fidelity=fidelity, ir_cache_dir=ir_cache_dir
    )
    groups: Dict[tuple, List[DesignPoint]] = {}
    for point in pending:
        base = bases.get(point.key())
        if base is None:
            groups.setdefault((point.workload_identity, point.platform), []).append(point)
        else:
            records.append(
                evaluate_point(point, probed=probes.get(point.key()), base=base, **options)
            )
    if pool is None or len(groups) < 2:
        for group in groups.values():
            records.extend(_evaluate_group(group, probes, **options))
    else:
        records.extend(_fan_out(pool, list(groups.values()), **options))
    ir_stats, inputs = _pop_side_channels(records)
    # Restore the batch point order (grouping reorders evaluation) so
    # downstream consumers can rely on it.
    order = {point.key(): index for index, point in enumerate(points)}
    records.sort(key=lambda r: order.get(r.get("point_key"), len(order)))
    return records, skipped, ir_stats, inputs


def _best_scored(records: Sequence[Dict]) -> List[Dict]:
    """The most trusted record per design point, errored points dropped."""
    return [r for r in best_fidelity_records(records) if "error" not in r]


def _frontier(scored: Sequence[Dict], objectives: Sequence[str]) -> List[Dict]:
    """Union of per-workload Pareto frontiers, workloads in name order."""
    groups: Dict[str, List[Dict]] = {}
    for record in scored:
        groups.setdefault(str(record.get("workload", "")), []).append(record)
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
    # Dedupe by identity up front: duplicate points would collapse into one
    # slot of the order-restoring sort and interleave cached/fresh results
    # nondeterministically.
    points = list({point.key(): point for point in space}.values())
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
