"""Multi-fidelity QoR evaluation: the two QoR levels and the promotion
policy that races them inside the DSE loop.

The exploration engine steers on QoR records, but QoR can be produced at
different costs and trust levels.  This module makes that axis explicit —
a fixed ladder, :data:`FIDELITIES`, cheapest first:

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

:func:`payload` produces a level's QoR record of one compile.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

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
    "FIDELITIES",
    "PromotionPolicy",
    "SIMULATE_CACHE_TAG",
    "SimulationInput",
    "best_fidelity_records",
    "check_fidelity",
    "fidelity_rank",
    "payload",
]

#: The QoR levels and their ``--list-fidelities`` descriptions, cheapest
#: first.  A level's rank is its position: a higher-rank record supersedes
#: a lower-rank one for the same design point.
FIDELITIES: Dict[str, str] = {
    "estimate": "analytic QoR model (cheap; steers every proposal)",
    "simulate": (
        "two-level dataflow simulation with back-pressure over the "
        "estimate stage's graphs (promoted points; no recompile of a "
        "point compiled in this run)"
    ),
}

#: The fidelity every record is produced at unless asked otherwise — and
#: the base level every promotion race starts from.
DEFAULT_FIDELITY = "estimate"

#: Fraction of each generation promoted when ``explore(fidelity=...)`` is
#: multi-fidelity and no explicit ``promote_top`` is given.
DEFAULT_PROMOTE_TOP = 0.25

#: Appended to the QoR-cache key of a simulate record, so the levels never
#: collide; base-level keys carry no tag.  Bump the version when the
#: simulation changes, to invalidate only simulate records.
SIMULATE_CACHE_TAG = "fid:simulate.v1"


def check_fidelity(level: str) -> None:
    """Refuse a level that is not in :data:`FIDELITIES`."""
    if level not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity level {level!r}; options: {', '.join(FIDELITIES)}"
        )


def fidelity_rank(name: Optional[str]) -> int:
    """Rank of a record's fidelity tag (untagged records are base-level)."""
    return list(FIDELITIES).index(name) if name in FIDELITIES else 0


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


@dataclasses.dataclass(frozen=True)
class SimulationInput:
    """What a promotion needs of a point's base compile, and no IR: the
    parts of a :class:`~repro.hida.pipeline.CompileResult` that
    :func:`payload` reads.  A few KB and picklable, so it crosses the worker
    boundary with the base record."""

    graphs: List[SimulationGraph]
    estimate: DesignEstimate
    base_summary: Dict[str, float]
    platform: Platform

    def summary(self) -> Dict[str, float]:
        return dict(self.base_summary)


def payload(level: str, result) -> Dict:
    """The JSON-safe QoR payload the runner caches (``summary`` /
    ``estimate`` / ``fits``) of a
    :class:`~repro.hida.pipeline.CompileResult` or a :class:`SimulationInput`.

    ``estimate`` is the analytic payload, exactly what pre-fidelity sweeps
    cached.  ``simulate`` takes its timing from the dataflow simulator over
    the estimate stage's graphs; resources (and therefore ``fits`` /
    ``max_utilization``) stay analytic — simulation refines cycle counts,
    not area.
    """
    if level == DEFAULT_FIDELITY:
        return {
            "summary": result.summary(),
            "estimate": result.estimate.to_dict(),
            "fits": result.platform.fits(result.estimate.resources.as_dict()),
        }
    check_fidelity(level)
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


# ---------------------------------------------------------------------------
# Promotion policy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PromotionPolicy:
    """Successive-halving-style promotion from ``estimate`` to ``simulate``.

    Each generation, :meth:`select` ranks the generation's freshly scored
    base-fidelity records against the cumulative best-fidelity context and
    promotes the top ``promote_top`` fraction (at least one):
    current-frontier members first, ordered by their hypervolume
    contribution within their workload group, then the remaining records by
    scalarized energy (so near-frontier designs, not lexicographic
    accidents, absorb leftover quota).  Every input the ranking consumes is
    a pure function of the observed records, so promotion is deterministic
    across worker counts and cache temperature.
    """

    promote_top: float = DEFAULT_PROMOTE_TOP

    def __post_init__(self) -> None:
        if not 0.0 < self.promote_top <= 1.0:
            raise ValueError(
                f"promote_top must be in (0, 1] (got {self.promote_top})"
            )

    def quota(self, candidates: int) -> int:
        """Global promotion quota over one round's eligible candidates."""
        if candidates <= 0:
            return 0
        return min(candidates, max(1, math.ceil(self.promote_top * candidates)))

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
            if "error" not in r and fidelity_rank(r.get("fidelity")) == 0
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
