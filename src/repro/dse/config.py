"""``ExploreConfig`` — every setting of one :func:`repro.dse.explore` run.

The API takes it (``explore(space, config)``; keyword overrides are
``dataclasses.replace`` on it), the CLI populates it, and
:class:`~repro.evaluation.reporting.ExplorationResult` embeds it.  Every
cross-field rule lives in :meth:`ExploreConfig.__post_init__` and nowhere
else: an invalid combination raises ``ValueError`` at construction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..compiler.ircache import default_ir_cache_dir
from .cache import default_cache_dir
from .fidelity import DEFAULT_FIDELITY, DEFAULT_PROMOTE_TOP, PromotionPolicy, check_fidelity
from .pareto import DEFAULT_OBJECTIVES, SUMMARY_METRICS
from .search import check_strategy

__all__ = ["ExploreConfig"]


@dataclasses.dataclass(frozen=True)
class ExploreConfig:
    """Frozen settings of one exploration run (validated on construction)."""

    #: ``<= 1`` evaluates serially in-process (easier profiling/debugging);
    #: anything larger fans out over one shared ``ProcessPoolExecutor``.
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
    #: ``pool.map`` chunk size of the worker fan-out.
    chunksize: int = 4
    #: Never compile: cached points stream into the result, every uncached
    #: point is skipped (``ExplorationResult.skipped``).  Turns an
    #: interrupted sweep's partial cache into an output JSON.  Replays the
    #: *whole* space at the base fidelity, so it excludes ``strategy`` and
    #: a higher ``fidelity``.
    resume: bool = False
    #: Evaluate a ``budget`` of the space instead of the full sweep, in the
    #: order of a :data:`~repro.dse.search.STRATEGIES` name (``exhaustive``
    #: or ``random``).  Its one batch lands in ``ExplorationResult.generations``.
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
    #: points are grouped by shared canonical-spec prefix so it compiles
    #: once per worker batch and the rest resume from snapshots.  Results
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
            if self.budget is not None and self.budget <= 0:
                raise ValueError(f"budget must be positive (got {self.budget})")
        policy = self.promotion_policy()  # validates fidelity and promote_top
        if self.promote_top is not None and policy is None:
            raise ValueError(
                "promote_top has no effect at the base fidelity; "
                "pass fidelity='simulate' with it"
            )
        if self.resume and policy is not None:
            raise ValueError(
                "resume replays base-fidelity cache entries only; drop fidelity=..."
            )
        if self.ir_cache_dir and not self.ir_cache:
            raise ValueError("ir_cache_dir has no effect with ir_cache=False")

    # ------------------------------------------------------------ derived
    def promotion_policy(self) -> Optional[PromotionPolicy]:
        """The promotion race of a multi-fidelity run (None at base level)."""
        check_fidelity(self.fidelity)
        if self.fidelity == DEFAULT_FIDELITY:
            return None
        return PromotionPolicy(
            DEFAULT_PROMOTE_TOP if self.promote_top is None else float(self.promote_top)
        )

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
        return cls(**data)
