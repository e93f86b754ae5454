"""repro.evaluation — experiment harnesses reproducing the paper's studies."""

from .lenet_case_study import (
    FACTOR_RANGES,
    LeNetDesignPoint,
    LeNetEvaluation,
    best_design,
    compile_hida_lenet,
    evaluate_design_point,
    exhaustive_search,
    expert_design_point,
    pareto_frontier,
)
from .reporting import ExplorationResult, format_ratio, format_table, print_table

__all__ = [
    "FACTOR_RANGES",
    "LeNetDesignPoint",
    "LeNetEvaluation",
    "best_design",
    "compile_hida_lenet",
    "evaluate_design_point",
    "exhaustive_search",
    "expert_design_point",
    "pareto_frontier",
    "ExplorationResult",
    "format_ratio",
    "format_table",
    "print_table",
]
