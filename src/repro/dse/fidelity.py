"""Multi-fidelity QoR evaluation: the fidelity-level registry and the
promotion policy that races levels inside the DSE loop.

The exploration engine steers on QoR records, but QoR can be produced at
different costs and trust levels.  This module makes that axis explicit:

* ``estimate`` — the analytic model exactly as every pre-fidelity sweep ran
  it (:meth:`~repro.hida.pipeline.CompileResult.summary`); cheap, and its
  QoR-cache keys are byte-identical to the pre-fidelity cache, so existing
  caches stay warm.
* ``simulate`` — a two-level dataflow simulation of the final design
  (:func:`repro.estimation.qor.simulate_graphs`), composed from the
  estimate stage's per-schedule graphs with no IR walk: bands execute
  frame-atomically inside each node, nodes pipeline internally at their
  band-chain interval, and the schedule's channel graph is simulated with
  back-pressure over a long frame horizon.  Closer to cycle truth.

A :class:`PromotionPolicy` implements successive-halving-style racing:
every proposed point is evaluated at the cheap fidelity, and each
generation the top fraction — frontier membership first, then hypervolume
contribution — is *promoted* to the expensive fidelity.  A point compiled
in this run is promoted without a recompile: its base evaluation keeps a
:class:`SimulationInput` until the batch's promotion pass.  The frontier is
re-ranked on the highest-fidelity record available per point.  Selection
depends only on QoR records (never timing or cache state), so fixed-seed
multi-fidelity runs stay byte-identical across worker counts.

Levels are registered like stages, workloads, targets and strategies:
``@register_fidelity`` / :func:`get_fidelity` / :func:`available_fidelities`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..estimation.platform import Platform
from ..estimation.qor import DesignEstimate, SimulationGraph, simulate_graphs
from .pareto import (
    DEFAULT_OBJECTIVES,
    hypervolume,
    hypervolume_reference,
    pareto_frontier,
    scalarized_energies,
)

__all__ = [
    "DEFAULT_FIDELITY",
    "DEFAULT_PROMOTE_TOP",
    "FidelityLevel",
    "PromotionPolicy",
    "SimulationInput",
    "available_fidelities",
    "best_fidelity_records",
    "describe_fidelities",
    "fidelity_rank",
    "get_fidelity",
    "register_fidelity",
]

#: The fidelity every record is produced at unless asked otherwise — and
#: the base level every promotion race starts from.
DEFAULT_FIDELITY = "estimate"

#: Fraction of each generation promoted when ``explore(fidelity=...)`` is
#: multi-fidelity and no explicit ``promote_top`` is given.
DEFAULT_PROMOTE_TOP = 0.25


@dataclasses.dataclass(frozen=True)
class FidelityLevel:
    """One registered QoR evaluation fidelity.

    ``apply(result)`` turns a :class:`~repro.hida.pipeline.CompileResult`
    (or a :class:`SimulationInput`) into the JSON-safe QoR payload the
    runner caches (``summary`` / ``estimate`` / ``fits``).  ``version`` is
    folded into the QoR-cache key of non-base levels, so refining a level's
    model invalidates only its own persisted records.
    """

    name: str
    #: Total order of trust/cost: higher-rank records supersede lower-rank
    #: ones for the same design point.
    rank: int
    description: str
    apply: Callable
    version: int = 1

    def cache_tag(self) -> str:
        return f"fid:{self.name}.v{self.version}"


_REGISTRY: Dict[str, FidelityLevel] = {}


def register_fidelity(level: FidelityLevel) -> FidelityLevel:
    """Add a fidelity level to the registry (name and rank must be unique)."""
    if not level.name:
        raise ValueError("fidelity level needs a name")
    existing = _REGISTRY.get(level.name)
    if existing is not None and existing is not level:
        raise ValueError(f"fidelity level {level.name!r} is already registered")
    for other in _REGISTRY.values():
        if other.name != level.name and other.rank == level.rank:
            raise ValueError(
                f"fidelity rank {level.rank} is taken by {other.name!r}; "
                "ranks must form a total order"
            )
    _REGISTRY[level.name] = level
    return level


def available_fidelities() -> List[str]:
    """Registered level names, cheapest (lowest rank) first."""
    return [
        level.name for level in sorted(_REGISTRY.values(), key=lambda l: l.rank)
    ]


def get_fidelity(name: str) -> FidelityLevel:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fidelity level {name!r}; "
            f"options: {', '.join(available_fidelities())}"
        ) from None


def describe_fidelities() -> List[str]:
    """One rendered line per registered level (the ``--list-fidelities``
    output of both CLIs)."""
    return [
        f"{level.name:10s} rank {level.rank}  {level.description}"
        for level in (get_fidelity(name) for name in available_fidelities())
    ]


def fidelity_rank(name: Optional[str]) -> int:
    """Rank of a record's fidelity tag (untagged records are base-level)."""
    if not name:
        return 0
    level = _REGISTRY.get(str(name))
    return level.rank if level is not None else 0


def best_fidelity_records(records: Sequence[Dict]) -> List[Dict]:
    """One record per design point: the highest-fidelity non-error one.

    Order follows each point's first appearance in ``records``, so the
    result is deterministic for any worker count.  An errored re-evaluation
    never displaces a scored lower-fidelity record.
    """
    best: Dict[str, Dict] = {}
    order: List[str] = []
    for record in records:
        key = str(record.get("point_key", ""))
        previous = best.get(key)
        if previous is None:
            best[key] = record
            order.append(key)
            continue
        if "error" in record and "error" not in previous:
            continue
        replaces_error = "error" in previous and "error" not in record
        outranks = fidelity_rank(record.get("fidelity")) >= fidelity_rank(
            previous.get("fidelity")
        )
        if replaces_error or outranks:
            best[key] = record
    return [best[key] for key in order]


# ---------------------------------------------------------------------------
# Built-in levels
# ---------------------------------------------------------------------------


def _estimate_payload(result) -> Dict:
    """The analytic QoR payload — exactly what pre-fidelity sweeps cached."""
    return {
        "summary": result.summary(),
        "estimate": result.estimate.to_dict(),
        "fits": result.platform.fits(result.estimate.resources.as_dict()),
    }


@dataclasses.dataclass(frozen=True)
class SimulationInput:
    """What a promotion needs of a point's base compile, and no IR: the
    parts of a :class:`~repro.hida.pipeline.CompileResult` a level's
    ``apply`` reads.  A few KB and picklable, so it crosses the worker
    boundary with the base record."""

    graphs: List[SimulationGraph]
    estimate: DesignEstimate
    base_summary: Dict[str, float]
    platform: Platform

    def summary(self) -> Dict[str, float]:
        return dict(self.base_summary)


def _simulate_payload(result) -> Dict:
    """Simulation-refined payload: timing from the dataflow simulator over
    the estimate stage's graphs.

    Resources (and therefore ``fits`` / ``max_utilization``) are the
    analytic values — simulation refines cycle counts, not area.
    """
    refined = simulate_graphs(result.graphs, result.estimate)
    summary = result.summary()
    summary["latency_cycles"] = refined.latency
    summary["interval_cycles"] = refined.interval
    summary["throughput"] = refined.throughput
    return {
        "summary": summary,
        "estimate": refined.to_dict(),
        "fits": result.platform.fits(refined.resources.as_dict()),
    }


ESTIMATE = register_fidelity(
    FidelityLevel(
        name="estimate",
        rank=0,
        description="analytic QoR model (cheap; steers every proposal)",
        apply=_estimate_payload,
    )
)

SIMULATE = register_fidelity(
    FidelityLevel(
        name="simulate",
        rank=1,
        description=(
            "two-level dataflow simulation with back-pressure over the "
            "estimate stage's graphs (promoted points; no recompile of a "
            "point compiled in this run)"
        ),
        apply=_simulate_payload,
    )
)


# ---------------------------------------------------------------------------
# Promotion policy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PromotionPolicy:
    """Successive-halving-style promotion between two fidelity levels.

    Each generation, :meth:`select` ranks the generation's freshly scored
    base-fidelity records against the cumulative best-fidelity context and
    promotes the top ``promote_top`` fraction (at least ``min_promote``):
    current-frontier members first, ordered by their hypervolume
    contribution within their workload group, then the remaining records by
    scalarized energy (so near-frontier designs, not lexicographic
    accidents, absorb leftover quota).  Every input the ranking consumes is
    a pure function of the observed records, so promotion is deterministic
    across worker counts and cache temperature.
    """

    target: str = "simulate"
    promote_top: float = DEFAULT_PROMOTE_TOP
    min_promote: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.promote_top <= 1.0:
            raise ValueError(
                f"promote_top must be in (0, 1] (got {self.promote_top})"
            )
        if self.min_promote < 0:
            raise ValueError(
                f"min_promote must be non-negative (got {self.min_promote})"
            )
        get_fidelity(self.target)  # fail fast on unknown levels

    def quota(self, candidates: int) -> int:
        """Global promotion quota over one round's eligible candidates."""
        if candidates <= 0:
            return 0
        return min(
            candidates, max(self.min_promote, math.ceil(self.promote_top * candidates))
        )

    def select(
        self,
        candidates: Sequence[Dict],
        context: Sequence[Dict],
        objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    ) -> List[str]:
        """Point keys to promote, in deterministic rank order.

        ``candidates`` are the records eligible for promotion this round
        (scored, base-fidelity); ``context`` is every scored best-fidelity
        record observed so far (used for frontier membership and the
        hypervolume reference).  The ``promote_top`` quota is *global* over
        the round's candidates — never per workload group, or a
        multi-workload sweep with one candidate per group would promote
        everything — but is spent breadth-first across groups (each group's
        best candidate before any group's second), so no workload starves.
        """
        eligible = [
            r
            for r in candidates
            if "error" not in r
            and fidelity_rank(r.get("fidelity")) < get_fidelity(self.target).rank
        ]
        if not eligible:
            return []
        groups: Dict[str, List[Dict]] = {}
        for record in eligible:
            name = str(record.get("workload", ""))
            groups.setdefault(name, []).append(record)
        context_groups: Dict[str, List[Dict]] = {}
        for record in context:
            if "error" in record:
                continue
            name = str(record.get("workload", ""))
            context_groups.setdefault(name, []).append(record)
        #: (position within its group, group rank tuple, key) per candidate:
        #: sorting on it spends the global quota breadth-first over groups.
        pool: List[Tuple[int, Tuple, str]] = []
        for name in sorted(groups):
            scored_context = context_groups.get(name, groups[name])
            frontier = pareto_frontier(scored_context, objectives)
            frontier_keys = [str(r.get("point_key", "")) for r in frontier]
            reference = hypervolume_reference(scored_context, objectives)
            full_volume = (
                hypervolume(frontier, objectives, reference) if reference else 0.0
            )
            contributions: Dict[str, float] = {}
            for index, key in enumerate(frontier_keys):
                rest = frontier[:index] + frontier[index + 1 :]
                rest_volume = (
                    hypervolume(rest, objectives, reference) if reference else 0.0
                )
                contributions[key] = full_volume - rest_volume
            energies = scalarized_energies(groups[name], objectives)
            ranked = []
            for record, energy in zip(groups[name], energies):
                key = str(record.get("point_key", ""))
                on_frontier = key in contributions
                # Frontier members order by hypervolume contribution;
                # everything else by scalarized energy, so a near-frontier
                # (e.g. dedup-tied) design always outranks a dominated one
                # for the simulation quota.
                ranked.append(
                    (
                        (
                            0 if on_frontier else 1,
                            -contributions[key] if on_frontier else energy,
                            key,
                        ),
                        key,
                    )
                )
            ranked.sort()
            pool.extend(
                (position, rank, key)
                for position, (rank, key) in enumerate(ranked)
            )
        pool.sort()
        return [key for _, _, key in pool[: self.quota(len(pool))]]
