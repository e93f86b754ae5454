"""Plain-text table rendering for the benchmark harnesses.

The benchmark files print the same rows the paper's tables report; these
helpers keep the formatting in one place.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from ..dse.config import ExploreConfig

__all__ = [
    "ExplorationResult",
    "format_table",
    "format_ratio",
    "print_table",
    "relative_disagreement",
]


def relative_disagreement(
    base_summary: Dict, refined_summary: Dict, objectives: Sequence[str]
) -> float:
    """Worst relative per-objective delta between two QoR summaries.

    The single definition of the fidelity-disagreement metric: the runner's
    per-generation ``disagree`` column and the per-point
    :meth:`ExplorationResult.disagreements` report both read it, so the two
    views can never drift apart.
    """
    worst = 0.0
    for name in objectives:
        low, high = base_summary.get(name), refined_summary.get(name)
        if low is None or high is None:
            continue
        low, high = float(low), float(high)
        worst = max(worst, abs(high - low) / max(abs(low), abs(high), 1e-9))
    return worst


def format_ratio(value: Optional[float]) -> str:
    """Render an improvement ratio the way the paper does (``1.95x``)."""
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.2f}x"


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> None:
    print()
    print(format_table(headers, rows, title))
    print()


@dataclasses.dataclass
class ExplorationResult:
    """Everything produced by one design-space exploration run.

    ``records`` and ``frontier`` hold plain JSON-safe dicts (one per design
    point) as produced by :mod:`repro.dse.runner`, so the result can be
    archived as a CI artifact and diffed across runs without custom codecs.
    """

    records: List[Dict] = dataclasses.field(default_factory=list)
    frontier: List[Dict] = dataclasses.field(default_factory=list)
    objectives: Sequence[str] = ("latency_cycles", "dsp", "bram")
    workers: int = 1
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: List[Dict] = dataclasses.field(default_factory=list)
    #: Points left unevaluated by a ``--resume`` replay (not in the cache).
    skipped: int = 0
    #: Search-strategy name when the run searched (None = full sweep).
    strategy: Optional[str] = None
    #: Evaluation budget of the search (distinct points; cache hits count).
    budget: Optional[int] = None
    #: Search progress, one row for the search's one batch (none for a full
    #: sweep): generation index, points evaluated, promotions and their
    #: worst estimate/simulate disagreement, evaluations vs budget, frontier
    #: size and (informational, run-internal) frontier hypervolume.
    generations: List[Dict] = dataclasses.field(default_factory=list)
    #: Top QoR fidelity of the run (see :mod:`repro.dse.fidelity`); the
    #: base ``"estimate"`` level means single-fidelity.
    fidelity: str = "estimate"
    #: Fraction of each generation promoted to the top fidelity (None =
    #: single-fidelity run).
    promote_top: Optional[float] = None
    #: Compilations resumed mid-pipeline from a stage-boundary IR snapshot
    #: (see :mod:`repro.compiler.ircache`); 0 when the IR cache was off.
    prefix_hits: int = 0
    #: Total stage executions those resumptions skipped.
    stages_skipped: int = 0
    #: Points the static pre-filter rejected before any evaluation (one
    #: record per point: reason, detail, rule counts; see
    #: :mod:`repro.analysis.prefilter`).  Rejections never consume budget.
    rejected: List[Dict] = dataclasses.field(default_factory=list)
    #: Frontier members dropped by ``explore(validate_frontier=True)``:
    #: their pipeline changed program behavior under the reference
    #: interpreter (one record per point: label, error, mismatching
    #: stage checks; see :mod:`repro.analysis.tv`).
    validation_failures: List[Dict] = dataclasses.field(default_factory=list)
    #: Telemetry summary of the run when tracing was enabled (span counts
    #: and the compile / simulate / cache-probe wall-time split; see
    #: :func:`repro.obs.telemetry_summary`).  None on untraced runs, and
    #: omitted from :meth:`to_dict` then, so result files are byte-identical
    #: to pre-telemetry output.
    telemetry: Optional[Dict] = None
    #: The :class:`~repro.dse.config.ExploreConfig` that produced this run
    #: (None on hand-built results, and omitted from :meth:`to_dict` then).
    config: Optional[ExploreConfig] = None

    @property
    def num_points(self) -> int:
        return len(self.records)

    @property
    def num_cached(self) -> int:
        return sum(1 for record in self.records if record.get("cached"))

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.num_points / self.elapsed_seconds

    @property
    def num_promoted(self) -> int:
        """Scored records above the base fidelity (promotion races).

        Errored re-evaluations are excluded — they produced no simulated
        QoR, so counting them would advertise disagreement rows that
        :meth:`disagreements` (rightly) cannot show.
        """
        return sum(
            1
            for record in self.records
            if "error" not in record
            and record.get("fidelity", "estimate") != "estimate"
        )

    @property
    def num_designs(self) -> int:
        """Distinct design points evaluated (what ``budget`` counts).

        A multi-fidelity run re-evaluates promoted points, so ``num_points``
        (records, i.e. evaluations) exceeds this; single-fidelity runs have
        the two equal.
        """
        return len({record.get("point_key") for record in self.records})

    def disagreements(self) -> List[Dict]:
        """Per-point estimate-vs-promoted objective comparison.

        One row per promoted point: the base and promoted values of every
        objective plus the worst relative delta — how much the dataflow
        simulation moved the analytic score.  Rows are ordered worst
        disagreement first (then point key), so the top row is where the
        cheap model is least trustworthy.
        """
        base: Dict[str, Dict] = {}
        promoted: Dict[str, Dict] = {}
        for record in self.records:
            if "error" in record:
                continue
            key = str(record.get("point_key", ""))
            if record.get("fidelity", "estimate") == "estimate":
                base.setdefault(key, record)
            else:
                promoted[key] = record
        rows: List[Dict] = []
        for key, refined in promoted.items():
            original = base.get(key)
            if original is None:
                continue
            comparison: Dict[str, object] = {
                "point_key": key,
                "label": refined.get("label", original.get("label", "?")),
                "fidelity": refined.get("fidelity"),
            }
            for name in self.objectives:
                comparison[f"estimate_{name}"] = original.get("summary", {}).get(
                    name
                )
                comparison[f"{refined.get('fidelity')}_{name}"] = refined.get(
                    "summary", {}
                ).get(name)
            comparison["max_disagreement"] = relative_disagreement(
                original.get("summary", {}),
                refined.get("summary", {}),
                self.objectives,
            )
            rows.append(comparison)
        rows.sort(
            key=lambda row: (-float(row["max_disagreement"]), row["point_key"])
        )
        return rows

    def frontier_keys(self) -> List[str]:
        """Stable identity of the frontier (for determinism checks)."""
        return [str(record.get("point_key", "")) for record in self.frontier]

    def best_by(self, metric: str, minimize: bool = True) -> Optional[Dict]:
        # Records missing the metric (errored points, partial summaries)
        # are ignored rather than scored 0.0 — a 0.0 default would make an
        # errored record "win" every minimization.
        scored = [
            r
            for r in self.records
            if r.get("summary", {}).get(metric) is not None
        ]
        if not scored:
            return None
        chooser = min if minimize else max
        return chooser(scored, key=lambda r: float(r["summary"][metric]))

    # -------------------------------------------------------------- rendering
    def frontier_table(self, max_rows: int = 0) -> str:
        headers = [
            "design point",
            "latency",
            "dsp",
            "bram",
            "throughput/s",
            "fidelity",
            "cached",
        ]
        rows = []
        frontier = self.frontier[:max_rows] if max_rows else self.frontier
        for record in frontier:
            summary = record.get("summary", {})
            rows.append(
                [
                    record.get("label", record.get("point_key", "?")),
                    summary.get("latency_cycles"),
                    summary.get("dsp"),
                    summary.get("bram"),
                    summary.get("throughput"),
                    record.get("fidelity", "estimate"),
                    "yes" if record.get("cached") else "no",
                ]
            )
        title = (
            f"Pareto frontier ({len(self.frontier)}/{self.num_designs} designs, "
            f"objectives: {', '.join(self.objectives)})"
        )
        return format_table(headers, rows, title)

    def search_table(self) -> str:
        """Progress of a search run, one row per generation.

        Multi-fidelity runs add the promotion columns: how many of the
        generation's designs were re-evaluated by the simulator and the
        worst relative disagreement between the two fidelities.  Runs with
        the IR snapshot cache on add a ``reuse`` column: per generation,
        how many compilations resumed from a cached stage prefix and how
        many stage executions that skipped.
        """
        multi = any(generation.get("promoted") for generation in self.generations)
        reuse = self.prefix_hits > 0 or any(
            generation.get("prefix_hits") for generation in self.generations
        )
        headers = ["gen", "evaluated", "total/budget", "frontier", "hypervolume"]
        if multi:
            headers[3:3] = ["promoted", "disagree"]
        if reuse:
            headers.append("reuse")
        rows = []
        for generation in self.generations:
            row = [
                generation.get("generation"),
                generation.get("evaluated"),
                f"{generation.get('total_evaluations')}/{self.budget}",
                generation.get("frontier_size"),
                generation.get("hypervolume"),
            ]
            if multi:
                disagreement = generation.get("max_disagreement")
                row[3:3] = [
                    generation.get("promoted", 0),
                    None if disagreement is None else f"{disagreement:.1%}",
                ]
            if reuse:
                row.append(
                    f"{generation.get('prefix_hits', 0)} hit(s)/"
                    f"{generation.get('stages_skipped', 0)} stage(s)"
                )
            rows.append(row)
        title = f"Search progress (strategy: {self.strategy}"
        if multi:
            title += f", fidelity: {self.fidelity}, promote top {self.promote_top:.0%}"
        title += ")"
        return format_table(headers, rows, title)

    def disagreement_table(self, max_rows: int = 0) -> str:
        """Estimate-vs-simulation comparison of every promoted point."""
        rows_data = self.disagreements()
        if max_rows:
            rows_data = rows_data[:max_rows]
        headers = ["design point", "fidelity"]
        for name in self.objectives:
            headers += [f"est {name}", f"{self.fidelity} {name}"]
        headers.append("disagree")
        rows = []
        for comparison in rows_data:
            row = [comparison.get("label"), comparison.get("fidelity")]
            for name in self.objectives:
                row.append(comparison.get(f"estimate_{name}"))
                row.append(comparison.get(f"{comparison.get('fidelity')}_{name}"))
            row.append(f"{float(comparison['max_disagreement']):.1%}")
            rows.append(row)
        return format_table(
            headers,
            rows,
            f"Fidelity disagreement ({self.num_promoted} promoted point(s))",
        )

    def summary(self) -> Dict[str, float]:
        return {
            "points": float(self.num_points),
            "designs": float(self.num_designs),
            "frontier": float(len(self.frontier)),
            "cached": float(self.num_cached),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "errors": float(len(self.errors)),
            "skipped": float(self.skipped),
            "promotions": float(self.num_promoted),
            "workers": float(self.workers),
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
            "prefix_hits": float(self.prefix_hits),
            "stages_skipped": float(self.stages_skipped),
            "rejected": float(len(self.rejected)),
            "validation_failures": float(len(self.validation_failures)),
        }

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["objectives"] = list(self.objectives)
        if self.config is not None:
            data["config"] = self.config.to_dict()
        for optional in ("config", "telemetry"):
            if data[optional] is None:
                del data[optional]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExplorationResult":
        from ..dse.config import ExploreConfig

        known = {f.name for f in dataclasses.fields(cls)}
        values = {name: value for name, value in data.items() if name in known}
        if "objectives" in values:
            values["objectives"] = tuple(values["objectives"])
        if values.get("config") is not None:
            values["config"] = ExploreConfig.from_dict(values["config"])
        return cls(**values)
