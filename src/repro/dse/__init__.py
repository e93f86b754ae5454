"""repro.dse — parallel design-space exploration with QoR caching.

The paper's value proposition is picking good dataflow and parallelization
configurations out of an enormous space; this package turns the single-shot
pipeline into that search engine:

* :mod:`repro.dse.space` — design points and preset design spaces;
* :mod:`repro.dse.cache` — persistent content-hash QoR cache;
* :mod:`repro.dse.config` — ``ExploreConfig``, every setting of one run;
* :mod:`repro.dse.evaluate` — one point: fingerprint, cache probe, compile;
* :mod:`repro.dse.runner` — the search loop and process-parallel fan-out;
* :mod:`repro.dse.pareto` — Pareto frontier + hypervolume over QoR records;
* :mod:`repro.dse.search` — pluggable adaptive search strategies
  (exhaustive / random / genetic / anneal over knob axes *and* pipeline
  composition);
* :mod:`repro.dse.fidelity` — the two QoR levels (analytic estimate,
  then dataflow simulation) with promotion racing;
* ``python -m repro.dse`` — the command-line sweep driver.
"""

from .cache import QoRCache, default_cache_dir
from .config import ExploreConfig
from .evaluate import evaluate_point
from .fidelity import (
    DEFAULT_FIDELITY,
    DEFAULT_PROMOTE_TOP,
    FIDELITIES,
    PromotionPolicy,
    best_fidelity_records,
    fidelity_rank,
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
from .search import (
    AnnealSearch,
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
    SearchStrategy,
    available_strategies,
    crossover_specs,
    get_strategy,
    make_strategy,
    mutate_spec,
    register_strategy,
)
from .space import (
    SPACE_PRESETS,
    DesignPoint,
    DesignSpace,
    axis_domains,
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
    "PromotionPolicy",
    "best_fidelity_records",
    "fidelity_rank",
    "DEFAULT_OBJECTIVES",
    "OBJECTIVE_DIRECTIONS",
    "hypervolume",
    "hypervolume_reference",
    "objective_direction",
    "objective_vector",
    "pareto_frontier",
    "evaluate_point",
    "explore",
    "AnnealSearch",
    "ExhaustiveSearch",
    "GeneticSearch",
    "RandomSearch",
    "SearchStrategy",
    "available_strategies",
    "crossover_specs",
    "get_strategy",
    "make_strategy",
    "mutate_spec",
    "register_strategy",
    "SPACE_PRESETS",
    "DesignPoint",
    "DesignSpace",
    "axis_domains",
    "build_space",
    "dnn_suite",
    "polybench_suite",
]
