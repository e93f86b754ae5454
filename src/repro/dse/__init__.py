"""repro.dse — parallel design-space exploration with QoR caching.

The paper's value proposition is picking good dataflow and parallelization
configurations out of an enormous space; this package turns the single-shot
pipeline into that search engine:

* :mod:`repro.dse.space` — design points and preset design spaces;
* :mod:`repro.dse.cache` — persistent content-hash QoR cache;
* :mod:`repro.dse.config` — ``ExploreConfig``, every setting of one run;
* :mod:`repro.dse.evaluate` — one point: fingerprint, cache probe, compile;
* :mod:`repro.dse.runner` — one batch, its promotion pass and the
  process-parallel fan-out;
* :mod:`repro.dse.pareto` — Pareto frontier + hypervolume over QoR records;
* :mod:`repro.dse.search` — the ``exhaustive`` and ``random`` search
  strategies: which budget of a space a run evaluates;
* :mod:`repro.dse.fidelity` — the two QoR levels (analytic estimate,
  then dataflow simulation) and which points a run promotes;
* ``python -m repro.dse`` — the command-line sweep driver.
"""

from .cache import QoRCache, default_cache_dir
from .config import ExploreConfig
from .evaluate import evaluate_point
from .fidelity import (
    DEFAULT_FIDELITY,
    DEFAULT_PROMOTE_TOP,
    FIDELITIES,
    best_fidelity_records,
    fidelity_rank,
    select_promotions,
)
from .pareto import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_DIRECTIONS,
    hypervolume,
    hypervolume_reference,
    objective_direction,
    objective_vector,
    pareto_frontier,
)
from .runner import explore
from .search import STRATEGIES, search_points
from .space import (
    SPACE_PRESETS,
    DesignPoint,
    DesignSpace,
    build_space,
    dnn_suite,
    polybench_suite,
)

__all__ = [
    "QoRCache",
    "default_cache_dir",
    "ExploreConfig",
    "DEFAULT_FIDELITY",
    "DEFAULT_PROMOTE_TOP",
    "FIDELITIES",
    "best_fidelity_records",
    "fidelity_rank",
    "select_promotions",
    "DEFAULT_OBJECTIVES",
    "OBJECTIVE_DIRECTIONS",
    "hypervolume",
    "hypervolume_reference",
    "objective_direction",
    "objective_vector",
    "pareto_frontier",
    "evaluate_point",
    "explore",
    "STRATEGIES",
    "search_points",
    "SPACE_PRESETS",
    "DesignPoint",
    "DesignSpace",
    "build_space",
    "dnn_suite",
    "polybench_suite",
]
