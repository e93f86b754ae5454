"""Multi-fidelity QoR evaluation: the two QoR levels and the promotion
ranking that races them inside a DSE run.

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

A multi-fidelity run races the two levels: every evaluated point is scored
at the cheap fidelity, then :func:`select_promotions` picks the top
fraction — frontier membership first, then hypervolume contribution — to
*promote* to the expensive one.  A point compiled in this run is promoted
without a recompile: its base evaluation keeps a :class:`SimulationInput`
until the promotion pass.  The frontier is re-ranked on the
highest-fidelity record available per point.  Selection
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
    "SIMULATE_CACHE_TAG",
    "SimulationInput",
    "best_fidelity_records",
    "check_fidelity",
    "fidelity_rank",
    "payload",
    "select_promotions",
]

#: The QoR levels and their ``--list-fidelities`` descriptions, cheapest
#: first.  A level's rank is its position: a higher-rank record supersedes
#: a lower-rank one for the same design point.
FIDELITIES: Dict[str, str] = {
    "estimate": "analytic QoR model (cheap; scores every evaluated point)",
    "simulate": (
        "two-level dataflow simulation with back-pressure over the "
        "estimate stage's graphs (promoted points; no recompile of a "
        "point compiled in this run)"
    ),
}

#: The fidelity every record is produced at unless asked otherwise — and
#: the base level every promotion starts from.
DEFAULT_FIDELITY = "estimate"

#: Fraction of the evaluated points promoted when ``explore(fidelity=...)``
#: is multi-fidelity and no explicit ``promote_top`` is given.
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


def select_promotions(
    records: Sequence[Dict],
    promote_top: float,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> List[str]:
    """Point keys of the scored ``records`` to promote, in rank order.

    Records group by workload.  Within a group, frontier members rank first,
    by their hypervolume contribution; the rest follow by scalarized energy,
    so near-frontier designs, not lexicographic accidents, absorb leftover
    quota.  The quota — the top ``promote_top`` fraction of the scored
    records, at least one — is global, never per group, or a multi-workload
    sweep with one record per group would promote everything; it is spent
    breadth-first across groups (each group's best before any group's
    second), so no workload starves.  Ranking reads only QoR values and
    point keys, so promotion is deterministic across worker counts and
    cache temperature.
    """
    groups: Dict[str, List[Dict]] = {}
    for record in records:
        if "error" not in record:
            groups.setdefault(str(record.get("workload", "")), []).append(record)
    #: (position within its group, rank tuple ending in the key) per record:
    #: sorting on it spends the global quota breadth-first over groups.
    pool: List[Tuple] = []
    for name in sorted(groups):
        group = groups[name]
        frontier = pareto_frontier(group, objectives)
        reference = hypervolume_reference(group, objectives)
        full_volume = hypervolume(frontier, objectives, reference) if reference else 0.0
        contributions: Dict[str, float] = {}
        for index, member in enumerate(frontier):
            rest = frontier[:index] + frontier[index + 1 :]
            rest_volume = hypervolume(rest, objectives, reference) if reference else 0.0
            contributions[str(member.get("point_key", ""))] = full_volume - rest_volume
        ranked = []
        for record, energy in zip(group, scalarized_energies(group, objectives)):
            key = str(record.get("point_key", ""))
            if key in contributions:
                ranked.append((0, -contributions[key], key))
            else:
                ranked.append((1, energy, key))
        ranked.sort()
        pool.extend((position, *rank) for position, rank in enumerate(ranked))
    pool.sort()
    quota = max(1, math.ceil(promote_top * len(pool)))
    return [entry[-1] for entry in pool[:quota]]
