"""Pareto-frontier extraction and hypervolume over QoR records.

The exploration engine scores each design point with the analytical QoR
model; a point is worth keeping only if no other point is at least as good
on every objective and strictly better on one.  Dominance is computed in a
*signed* objective space where every metric is minimized: metrics whose
:data:`OBJECTIVE_DIRECTIONS` entry is ``"max"`` (throughput) are negated,
so ``--objectives throughput,dsp`` trades designs the right way.  A record
whose summary lacks an objective scores ``float("inf")`` on it — the worst
possible value — so incomplete records can never spuriously dominate real
ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_OBJECTIVES",
    "OBJECTIVE_DIRECTIONS",
    "SUMMARY_METRICS",
    "objective_direction",
    "objective_vector",
    "pareto_frontier",
    "scalarized_energies",
    "hypervolume",
    "hypervolume_reference",
]

#: Minimized objectives, read from a record's ``summary`` mapping.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("latency_cycles", "dsp", "bram")

#: Every metric a QoR record's summary carries (see CompilationState.summary);
#: used to reject typo'd objective names before a sweep silently scores 0.
SUMMARY_METRICS: Tuple[str, ...] = (
    "throughput",
    "latency_cycles",
    "interval_cycles",
    "lut",
    "ff",
    "dsp",
    "bram",
    "max_utilization",
    "compile_seconds",
    "num_nodes",
    "misalignments",
)

#: Optimization direction of each summary metric.  Dominance and
#: hypervolume work on signed vectors where "max" metrics are negated, so
#: every objective is minimized internally.
OBJECTIVE_DIRECTIONS: Dict[str, str] = {
    "throughput": "max",
    **{
        name: "min"
        for name in SUMMARY_METRICS
        if name != "throughput"
    },
}


def objective_direction(name: str) -> str:
    """``"min"`` or ``"max"`` for a summary metric (unknown names minimize)."""
    return OBJECTIVE_DIRECTIONS.get(name, "min")


def objective_vector(
    record: Dict, objectives: Sequence[str] = DEFAULT_OBJECTIVES
) -> Tuple[float, ...]:
    """Signed (all-minimized) objective vector of one QoR record.

    Maximized metrics are negated; a metric missing from the summary maps
    to ``+inf`` (worst) regardless of direction, so a record that never
    produced an estimate cannot dominate anything.
    """
    summary = record.get("summary", record)
    vector = []
    for name in objectives:
        value = summary.get(name)
        if value is None:
            vector.append(float("inf"))
            continue
        value = float(value)
        vector.append(-value if objective_direction(name) == "max" else value)
    return tuple(vector)


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere (NaN never is) and better somewhere."""
    better = False
    for x, y in zip(a, b):
        if not x <= y:
            return False
        better = better or x < y
    return better


def pareto_frontier(
    records: Sequence[Dict], objectives: Sequence[str] = DEFAULT_OBJECTIVES
) -> List[Dict]:
    """Non-dominated subset of ``records``, in deterministic order.

    The result is sorted by signed objective vector (then point key as
    tiebreak), so two explorations that evaluate the same set of points — in
    any order, with any worker count — produce byte-identical frontiers.
    Duplicate objective vectors keep one representative (smallest point key).
    """
    scored = [(objective_vector(r, objectives), r) for r in records]
    frontier: List[Tuple[Tuple[float, ...], Dict]] = []
    seen_vectors = set()
    for vector, _record in scored:
        if any(_dominates(other, vector) for other, _ in scored):
            continue
        if vector in seen_vectors:
            continue
        seen_vectors.add(vector)
        candidates = [
            (vec, rec) for vec, rec in scored if vec == vector
        ]
        candidates.sort(key=lambda item: str(item[1].get("point_key", "")))
        frontier.append(candidates[0])
    frontier.sort(key=lambda item: (item[0], str(item[1].get("point_key", ""))))
    return [record for _, record in frontier]


def scalarized_energies(
    records: Sequence[Dict], objectives: Sequence[str] = DEFAULT_OBJECTIVES
) -> List[float]:
    """Scalarized energy per record: the mean min-max-normalized signed
    objective value (lower is better); records missing an objective score
    ``inf``.  The single-number ranking that orders dominated candidates
    for promotion (:func:`~repro.dse.fidelity.select_promotions`).
    """
    vectors = [objective_vector(r, objectives) for r in records]
    finite = [v for v in vectors if all(x != float("inf") for x in v)]
    if not finite:
        return [float("inf")] * len(vectors)
    lows = [min(v[i] for v in finite) for i in range(len(objectives))]
    highs = [max(v[i] for v in finite) for i in range(len(objectives))]
    energies = []
    for vector in vectors:
        if any(x == float("inf") for x in vector):
            energies.append(float("inf"))
            continue
        parts = [
            (x - lo) / (hi - lo) if hi > lo else 0.0
            for x, lo, hi in zip(vector, lows, highs)
        ]
        energies.append(sum(parts) / len(parts))
    return energies


# ---------------------------------------------------------------------------
# Hypervolume (frontier quality: promotion ranking, search evaluation)
# ---------------------------------------------------------------------------


def hypervolume_reference(
    records: Sequence[Dict], objectives: Sequence[str] = DEFAULT_OBJECTIVES
) -> Optional[Tuple[float, ...]]:
    """A reference point dominating every finite record (signed space).

    Component-wise worst observed value plus a 10 % margin of the observed
    range (plus epsilon, so degenerate single-value axes still enclose a
    box).  Returns ``None`` when no record has a fully finite vector.
    Compare hypervolumes only against the *same* reference — pass the
    reference of the richest record set (e.g. the exhaustive sweep) in.
    """
    vectors = [
        v
        for v in (objective_vector(r, objectives) for r in records)
        if all(x != float("inf") for x in v)
    ]
    if not vectors:
        return None
    reference = []
    for axis in range(len(objectives)):
        values = [v[axis] for v in vectors]
        worst, best = max(values), min(values)
        margin = 0.1 * (worst - best)
        if margin <= 0:
            # Degenerate axis (every record equal): give the box unit-ish
            # thickness.  It multiplies every record's contribution by the
            # same constant, so within-reference comparisons are unchanged,
            # while a vanishing margin would collapse hypervolume to ~0.
            margin = max(1.0, 0.1 * abs(worst))
        # The epsilon must survive float addition at the axis' magnitude,
        # or the strict bound in :func:`hypervolume` would exclude the
        # worst record.
        reference.append(worst + margin + max(1e-9, abs(worst) * 1e-9))
    return tuple(reference)


def _box_volume(vectors: List[Tuple[float, ...]], reference: Tuple[float, ...]) -> float:
    """Volume of the union of boxes [vector, reference] (HSO slicing)."""
    if not vectors:
        return 0.0
    if len(reference) == 1:
        return max(0.0, reference[0] - min(v[0] for v in vectors))
    ordered = sorted(vectors)
    total = 0.0
    for index, vector in enumerate(ordered):
        lower = vector[0]
        if lower >= reference[0]:
            break
        upper = reference[0]
        if index + 1 < len(ordered):
            upper = min(upper, ordered[index + 1][0])
        if upper > lower:
            slab = [v[1:] for v in ordered[: index + 1]]
            total += (upper - lower) * _box_volume(slab, reference[1:])
    return total


def hypervolume(
    records: Sequence[Dict],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    reference: Optional[Sequence[float]] = None,
) -> float:
    """Hypervolume dominated by ``records`` w.r.t. a signed reference point.

    The reference lives in the same signed (all-minimized) space as
    :func:`objective_vector`; when omitted it is derived from ``records``
    via :func:`hypervolume_reference`.  Records with a missing objective
    (infinite signed value) or beyond the reference contribute nothing.
    """
    if reference is None:
        derived = hypervolume_reference(records, objectives)
        if derived is None:
            return 0.0
        reference = derived
    reference = tuple(float(x) for x in reference)
    vectors = []
    for record in records:
        vector = objective_vector(record, objectives)
        if all(x < r for x, r in zip(vector, reference)):
            vectors.append(vector)
    return _box_volume(vectors, reference)
