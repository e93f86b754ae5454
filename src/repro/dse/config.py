"""``ExploreConfig``, every setting of one :func:`repro.dse.explore` run,
and ``ExplorationResult``, what the run produced.

The API takes the config (``explore(space, config)``; keyword overrides are
``dataclasses.replace`` on it), the CLI fills it by field name, and the
result embeds it and reads the run's settings from it.  Every cross-field
rule lives in :meth:`ExploreConfig.__post_init__` and nowhere else: an
invalid combination raises ``ValueError`` at construction.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from typing import Dict, List, Optional, Tuple

from ..compiler.ircache import default_ir_cache_dir
from ..evaluation.reporting import format_table
from .cache import default_cache_dir
from .fidelity import DEFAULT_FIDELITY, DEFAULT_PROMOTE_TOP, check_fidelity
from .pareto import DEFAULT_OBJECTIVES, SUMMARY_METRICS
from .search import check_strategy

__all__ = ["ExploreConfig", "ExplorationResult"]


@dataclasses.dataclass(frozen=True)
class ExploreConfig:
    """Frozen settings of one exploration run (validated on construction)."""

    #: ``<= 1`` evaluates serially in-process (easier profiling/debugging);
    #: more runs each workload x platform group on one shared process pool.
    workers: int = 1
    #: QoR cache root (default ``$REPRO_DSE_CACHE`` or ``~/.cache/repro/dse``).
    cache_dir: Optional[str] = None
    #: Persist every evaluated point in the QoR cache and replay hits, so
    #: overlapping sweeps and re-runs are nearly free.
    use_cache: bool = True
    #: Summary metrics the frontier optimizes, each in its natural direction.
    #: The frontier is the union of per-workload frontiers: trade-offs only
    #: make sense between designs of the *same* computation.
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    #: Never compile: cached points stream into the result, every uncached
    #: point is skipped (``ExplorationResult.skipped``).  Turns an
    #: interrupted sweep's partial cache into an output JSON.  Replays the
    #: *whole* space at the base fidelity, so it excludes ``strategy`` and
    #: a higher ``fidelity``.
    resume: bool = False
    #: Evaluate a ``budget`` of the space instead of the full sweep, in the
    #: order of a :data:`~repro.dse.search.STRATEGIES` name (``exhaustive``
    #: or ``random``).
    strategy: Optional[str] = None
    #: Cap on distinct points a ``strategy`` evaluates (default: the space
    #: size).  Cache hits count, promotions and prefilter rejections do not,
    #: so cold and warm runs evaluate the same points.
    budget: Optional[int] = None
    #: Seed of the ``random`` shuffle.
    seed: int = 0
    #: Top QoR level, ``estimate`` or ``simulate`` (see
    #: :mod:`repro.dse.fidelity`).  At ``simulate`` every point is still
    #: scored by the analytic model first; then the top ``promote_top``
    #: fraction is re-evaluated by simulation and the frontier re-ranks on
    #: the highest-fidelity record per point.  The two levels cache under
    #: distinct keys.
    fidelity: str = DEFAULT_FIDELITY
    #: Fraction of the evaluated points promoted (default 0.25; frontier
    #: members first, ranked by hypervolume contribution).
    promote_top: Optional[float] = None
    #: Stage-boundary IR snapshot cache (:mod:`repro.compiler.ircache`):
    #: a group's points run in canonical-spec order, so each shared prefix
    #: compiles once and the rest resume from snapshots.  Results
    #: are byte-identical on/off/cold/warm; reuse shows only in
    #: ``prefix_hits``/``stages_skipped``.  The cache trusts workload ids, so
    #: re-registering a different workload under a cached id needs a clear.
    ir_cache: bool = False
    #: Snapshot root (default ``$REPRO_IR_CACHE`` or ``~/.cache/repro/ir``).
    ir_cache_dir: Optional[str] = None
    #: Statically reject infeasible points before evaluation
    #: (:mod:`repro.analysis.prefilter`) into ``ExplorationResult.rejected``;
    #: records of feasible points are unchanged.
    prefilter: bool = False
    #: Translation-validate every frontier member (:mod:`repro.analysis.tv`);
    #: failures move to ``ExplorationResult.validation_failures``.
    validate_frontier: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", tuple(self.objectives))
        for name in ("cache_dir", "ir_cache_dir"):  # accept os.PathLike
            if getattr(self, name) is not None:
                object.__setattr__(self, name, str(getattr(self, name)))
        unknown = [name for name in self.objectives if name not in SUMMARY_METRICS]
        if unknown or not self.objectives:
            raise ValueError(
                f"unknown objective(s) {unknown or '(none)'}; "
                f"choose from {SUMMARY_METRICS}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative (got {self.workers})")
        searching = self.strategy is not None
        search_args = self.budget is not None or self.seed
        if self.resume and not self.use_cache:
            raise ValueError("resume=True requires the QoR cache (use_cache=True)")
        if self.resume and searching:
            raise ValueError("resume replays the whole space; drop strategy=...")
        if search_args and not searching:
            raise ValueError(
                "budget/seed have no effect without strategy=... "
                "(the full sweep evaluates every point)"
            )
        if searching:
            check_strategy(self.strategy)
            if self.budget is not None and (
                isinstance(self.budget, bool)
                or not isinstance(self.budget, numbers.Integral)
                or self.budget <= 0
            ):
                raise ValueError(f"budget must be positive and whole (got {self.budget!r})")
        check_fidelity(self.fidelity)
        if self.promote_top is not None:
            if self.fidelity == DEFAULT_FIDELITY:
                raise ValueError(
                    "promote_top has no effect at the base fidelity; "
                    "pass fidelity='simulate' with it"
                )
            if not 0.0 < self.promote_top <= 1.0:
                raise ValueError(f"promote_top must be in (0, 1] (got {self.promote_top})")
        if self.resume and self.fidelity != DEFAULT_FIDELITY:
            raise ValueError(
                "resume replays base-fidelity cache entries only; drop fidelity=..."
            )
        if self.ir_cache_dir and not self.ir_cache:
            raise ValueError("ir_cache_dir has no effect with ir_cache=False")

    # ------------------------------------------------------------ derived
    def promotion_fraction(self) -> Optional[float]:
        """The fraction of the evaluated points promoted (None at base level)."""
        if self.fidelity == DEFAULT_FIDELITY:
            return None
        return DEFAULT_PROMOTE_TOP if self.promote_top is None else float(self.promote_top)

    def qor_cache_root(self) -> Optional[str]:
        """Resolved QoR cache directory (None with the cache off)."""
        if not self.use_cache:
            return None
        return self.cache_dir or str(default_cache_dir())

    def ir_cache_root(self) -> Optional[str]:
        """Resolved IR snapshot directory (None with the IR cache off)."""
        if not self.ir_cache:
            return None
        return self.ir_cache_dir or str(default_ir_cache_dir())

    # ------------------------------------------------------ serialization
    def to_dict(self) -> Dict:
        """JSON-safe settings."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["objectives"] = list(self.objectives)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExploreConfig":
        """Settings from :meth:`to_dict`; keys of settings that no longer
        exist are dropped, so archived result files still load."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{name: value for name, value in data.items() if name in known})


@dataclasses.dataclass
class ExplorationResult:
    """Everything produced by one design-space exploration run.

    ``records`` and ``frontier`` hold plain JSON-safe dicts (one per design
    point) as produced by :mod:`repro.dse.runner`, so the result can be
    archived as a CI artifact and diffed across runs without custom codecs.
    The run's settings are not copied here: they are ``config``, which the
    setting properties read, and the counts over ``records`` are computed.
    """

    records: List[Dict] = dataclasses.field(default_factory=list)
    frontier: List[Dict] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Points left unevaluated by a ``--resume`` replay (not in the cache).
    skipped: int = 0
    #: Evaluation budget of a search (distinct points; cache hits count); None on a full sweep.
    budget: Optional[int] = None
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
    #: The settings that produced this run.
    config: ExploreConfig = dataclasses.field(default_factory=ExploreConfig)

    # ----------------------------------------- settings, read from config
    @property
    def objectives(self) -> Tuple[str, ...]:
        return self.config.objectives

    @property
    def workers(self) -> int:
        return max(1, self.config.workers)

    @property
    def strategy(self) -> Optional[str]:
        return self.config.strategy

    @property
    def fidelity(self) -> str:
        return self.config.fidelity

    @property
    def promote_top(self) -> Optional[float]:
        """The fraction of points promoted (None = single-fidelity run)."""
        return self.config.promotion_fraction()

    # ------------------------------------------------ counts over records
    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.get("cached"))

    @property
    def cache_misses(self) -> int:
        return self.num_points - self.cache_hits

    @property
    def errors(self) -> List[Dict]:
        return [record for record in self.records if "error" in record]

    @property
    def num_points(self) -> int:
        return len(self.records)

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
            worst = 0.0
            for name in self.objectives:
                low = original.get("summary", {}).get(name)
                high = refined.get("summary", {}).get(name)
                comparison[f"estimate_{name}"] = low
                comparison[f"{refined.get('fidelity')}_{name}"] = high
                if low is not None and high is not None:
                    low, high = float(low), float(high)
                    worst = max(worst, abs(high - low) / max(abs(low), abs(high), 1e-9))
            comparison["max_disagreement"] = worst
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
        data["config"] = self.config.to_dict()
        if self.telemetry is None:
            del data["telemetry"]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExplorationResult":
        """A result from :meth:`to_dict`; keys of retired fields are dropped."""
        known = {f.name for f in dataclasses.fields(cls)}
        values = {name: value for name, value in data.items() if name in known}
        if "config" in values:
            values["config"] = ExploreConfig.from_dict(values["config"])
        return cls(**values)
