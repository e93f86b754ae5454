"""Static soundness analysis of structural dataflow designs.

Rule-based checks over the same channel graph the coarse-grained simulator
executes: capacity-constrained deadlock detection, SDF-style token-balance
consistency, memory-race detection (the paper's single-producer invariant)
and buffer-sizing lints.  Wired in at three layers:

* the registered ``lint`` compiler stage (``python -m repro.compiler
  --lint`` / ``--lint-fail-on``), diagnostics flowing through the
  pipeline's observer hooks;
* the standalone ``python -m repro.analysis`` CLI sweeping the workload
  zoo into a rule-hit table (with a committed clean-zoo baseline for CI);
* the DSE pre-filter (:func:`repro.analysis.prefilter.check_point`)
  rejecting statically infeasible points before fan-out.

:mod:`repro.analysis.tv` adds executable ground truth on top: per-stage
translation validation against the reference interpreter (the ``validate``
compiler stage, ``python -m repro.analysis.tv`` sweeps and the legality
fuzzer), so "legal" verdicts are executed, not argued.

Soundness is differential: a ``deadlock`` finding is derived by running
:func:`~repro.estimation.dataflow_sim.simulate_dataflow` over the flagged
cycle, so every flagged design provably stalls in the simulator and clean
designs are never flagged (pinned by the property tests).
"""

from . import checkers, loop_checkers  # noqa: F401  (registers the built-in rules)
from .dependence import (
    Dependence,
    DistanceElement,
    NestAccesses,
    band_dependences,
    loop_carried_dependences,
    loop_carries_dependence,
    nest_dependences,
)
from .engine import (
    AnalysisReport,
    ScheduleContext,
    analyze_module,
    locate_ops,
)
from .legality import (
    BankConflict,
    LegalityResult,
    TransformLegalityError,
    legal_permutation,
    legal_pipeline_ii,
    legal_unroll,
    partition_bank_conflicts,
)
from .prefilter import check_point, filter_points
from .tv import (
    FuzzReport,
    StageValidation,
    TranslationValidationError,
    ValidationReport,
    fuzz_transforms,
    semantic_fingerprint,
    validate_pipeline,
)
from .recurrence import dependence_chain_latency, pipeline_rec_mii
from .rules import (
    SEVERITIES,
    SUPPRESS_ATTR,
    AnalysisDiagnostic,
    AnalysisError,
    AnalysisRule,
    SourceLocation,
    available_rules,
    default_rules,
    is_suppressed,
    register_rule,
    rule_registry,
    severity_rank,
)

__all__ = [
    "SEVERITIES",
    "SUPPRESS_ATTR",
    "AnalysisDiagnostic",
    "AnalysisError",
    "AnalysisReport",
    "AnalysisRule",
    "BankConflict",
    "Dependence",
    "DistanceElement",
    "FuzzReport",
    "LegalityResult",
    "NestAccesses",
    "ScheduleContext",
    "SourceLocation",
    "StageValidation",
    "TransformLegalityError",
    "TranslationValidationError",
    "ValidationReport",
    "analyze_module",
    "available_rules",
    "band_dependences",
    "check_point",
    "default_rules",
    "dependence_chain_latency",
    "filter_points",
    "fuzz_transforms",
    "is_suppressed",
    "legal_permutation",
    "legal_pipeline_ii",
    "legal_unroll",
    "locate_ops",
    "loop_carried_dependences",
    "loop_carries_dependence",
    "nest_dependences",
    "partition_bank_conflicts",
    "pipeline_rec_mii",
    "register_rule",
    "rule_registry",
    "semantic_fingerprint",
    "severity_rank",
    "validate_pipeline",
]
