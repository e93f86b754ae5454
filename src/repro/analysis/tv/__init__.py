"""Translation validation: per-stage semantic equivalence checking.

Every pipeline stage boundary becomes a checkable claim: the module after
the stage must compute the same outputs as the module before it, over the
seeded reference inputs of :mod:`repro.ir.interp`.  Following the
CounterPoint idiom (concrete measurements refute analytic assumptions),
"legal" is no longer argued — it is executed.

Two equivalence paths, cheapest first:

* **Static fast path** — :func:`semantic_fingerprint` is the module's
  structural key (:meth:`~repro.ir.printer.IRPrinter.key`) with every
  directive/bookkeeping attribute (:data:`NON_SEMANTIC_ATTRS`) left out:
  equal keys print equal text, so nothing is formatted or hashed.  Stages
  that only annotate (``tile``, ``parallelize``, unroll/pipeline
  directives) leave access maps, loop bounds and op structure untouched,
  so their boundary validates without executing anything.
* **Executed path** — the one executed check: :func:`execute` runs each
  module version through the reference interpreter and :func:`compare`
  diffs the outputs, *bitwise* by default.  Inputs are deterministic small
  integers, so f64 arithmetic is exact and even reassociating transforms
  stay byte-identical on kernels without division; kernels with genuinely
  non-integer math (``divf``/``sqrt``/``exp``) pass a documented relative
  ``tolerance`` instead.  A module too large for the interpreter's op
  budget reports an honest ``skipped-budget`` — never a silently vacuous
  "validated".

Every executed check runs through that pair, at three callers:

* the registered ``validate`` compiler stage (inserted at every boundary
  by ``python -m repro.compiler --validate``; exit code 5 on a mismatch),
  whose ``state.tv_baseline.checks`` is the one record
  :func:`validate_pipeline` and ``explore(validate_frontier=True)`` report;
* ircache snapshot self-verification (:meth:`IRSnapshotCache.store`
  executes the parsed snapshot against the live state before writing);
* the legality fuzzer (``python -m repro.analysis.tv --fuzz``): every
  random checked transform either raises ``TransformLegalityError`` or
  validates — statically when it leaves the key unchanged — with no third
  outcome.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...ir import interp
from ...ir.interp import (
    DEFAULT_MAX_OPS,
    ExecutionResult,
    InterpreterBudgetError,
    diff_results,
)

__all__ = [
    "NON_SEMANTIC_ATTRS",
    "FuzzReport",
    "StageValidation",
    "TranslationValidationError",
    "TVBaseline",
    "ValidationReport",
    "compare",
    "execute",
    "fuzz_transforms",
    "run_validate_stage",
    "semantic_fingerprint",
    "validate_pipeline",
    "validate_point",
]

#: Attributes that never change a module's observable behavior: directives
#: consumed by the QoR estimator / HLS backend (unroll, pipeline, tiling,
#: partitioning hints) and pure bookkeeping.  Left out of the semantic
#: fingerprint, so directive-only stages take the static fast path.
#: ``map``/``layout``/``lower_bound``/... stay — those shape addressing.
NON_SEMANTIC_ATTRS = frozenset(
    {
        "balanced",
        "depth",
        "label",
        "layer",
        "lint_suppress",
        "memory_kind",
        "parallel",
        "partition",
        "pipeline",
        "point_loop",
        "soft_fifo",
        "target_ii",
        "tile_elements",
        "tile_size",
        "tiled",
        "unroll_factor",
    }
)

#: Validation outcomes, roughly cheapest to worst.
_OUTCOMES = ("baseline", "static", "bitwise", "tolerance", "skipped-budget", "mismatch")


class TranslationValidationError(RuntimeError):
    """A pipeline stage changed the module's observable behavior."""

    def __init__(
        self,
        stage: str,
        mismatches: Sequence[str],
        checks: Sequence["StageValidation"] = (),
    ) -> None:
        head = mismatches[0] if mismatches else "outputs differ"
        super().__init__(
            f"stage {stage!r} changed program behavior: {head}"
            + (f" (+{len(mismatches) - 1} more)" if len(mismatches) > 1 else "")
        )
        self.stage = stage
        self.mismatches = tuple(mismatches)
        self.checks = tuple(checks)


@dataclasses.dataclass(frozen=True)
class StageValidation:
    """Outcome of one stage-boundary equivalence check."""

    #: Label of the pipeline stage whose exit boundary this validates
    #: ("frontend" for the baseline before any stage ran).
    stage: str
    #: One of :data:`_OUTCOMES`.
    outcome: str
    mismatches: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "outcome": self.outcome,
            "mismatches": list(self.mismatches),
        }


@dataclasses.dataclass
class TVBaseline:
    """Rolling reference carried through a pipeline's validate stages.

    ``behavior`` is the most recent successfully executed result (None
    while every boundary so far exceeded the interpreter budget), so
    comparisons are always against the *previous* stage boundary — the
    mismatch report names the stage that actually broke the program.
    ``checks`` is the run's record of every boundary checked so far.
    """

    #: :func:`semantic_fingerprint` of the last checked boundary.
    fingerprint: Tuple[Any, ...]
    behavior: Optional[ExecutionResult]
    seed: int
    max_ops: int
    checks: List[StageValidation] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ValidationReport:
    """Every stage-boundary check of one validated pipeline run."""

    workload: str
    spec: str
    platform: str
    checks: List[StageValidation] = dataclasses.field(default_factory=list)
    #: Message of the error that aborted the run (None = ran to completion).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None  # a mismatch always aborts the run

    @property
    def mismatches(self) -> List[StageValidation]:
        return [check for check in self.checks if check.outcome == "mismatch"]

    def outcomes(self) -> Dict[str, int]:
        """``outcome -> count`` in severity order (stable across runs)."""
        counts = {name: 0 for name in _OUTCOMES}
        for check in self.checks:
            counts[check.outcome] = counts.get(check.outcome, 0) + 1
        return {name: count for name, count in counts.items() if count}

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "spec": self.spec,
            "platform": self.platform,
            "ok": self.ok,
            "outcomes": self.outcomes(),
            "checks": [check.to_dict() for check in self.checks],
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# Static fast path
# ---------------------------------------------------------------------------


def semantic_fingerprint(module) -> Tuple[Any, ...]:
    """Structural key of ``module`` modulo non-semantic attributes.

    Equal fingerprints prove equivalence structurally: access maps, loop
    bounds, op sequence and types are all part of the key, which is equal
    only where the printed forms are, so two modules that differ only in
    directives (:data:`NON_SEMANTIC_ATTRS`) key identically and need no
    execution.
    """
    from ...ir.printer import IRPrinter

    return IRPrinter(skip_attrs=NON_SEMANTIC_ATTRS).key(module)


# ---------------------------------------------------------------------------
# The executed check and the validate stage body
# ---------------------------------------------------------------------------


def execute(module, seed: int, max_ops: int) -> Optional[ExecutionResult]:
    """Interpret ``module``; None when it exceeds the op budget."""
    try:  # looked up on the module, so a patched or counted interpreter runs
        return interp.interpret_module(module, seed=seed, max_ops=max_ops)
    except InterpreterBudgetError:
        return None


def compare(
    reference: Optional[ExecutionResult],
    result: Optional[ExecutionResult],
    tolerance: float = 0.0,
) -> Tuple[str, Tuple[str, ...]]:
    """``(outcome, mismatches)`` of ``result`` against ``reference``:
    ``skipped-budget`` when either side did not execute, ``bitwise``,
    ``tolerance`` (equal within the relative ``tolerance``), or ``mismatch``
    with up to eight differing elements — under a tolerance, those outside it.
    """
    if reference is None or result is None:
        return "skipped-budget", ()
    mismatches = diff_results(reference, result)
    if mismatches and tolerance > 0:
        mismatches = diff_results(reference, result, tolerance=tolerance)
        if not mismatches:
            return "tolerance", ()
    if mismatches:
        return "mismatch", tuple(mismatches[:8])
    return "bitwise", ()


def run_validate_stage(stage, state) -> None:
    """Body of the registered ``validate`` compiler stage.

    The first validate boundary of a run (or of new ``seed``/``max-ops``)
    records the baseline (fingerprint + executed behavior) into
    ``state.tv_baseline``; every later one proves equivalence against it —
    statically when the semantic fingerprint is unchanged, by execution
    otherwise — then rolls the baseline forward.  Each check, labeled by
    :func:`~repro.compiler.stages.checked_boundary`, is appended to
    ``state.tv_baseline.checks``.  A mismatch emits an error diagnostic
    and raises :class:`TranslationValidationError`.
    """
    from ...compiler.stages import checked_boundary

    seed = int(stage.seed)
    max_ops = int(stage.max_ops) or DEFAULT_MAX_OPS
    tolerance = float(stage.tolerance)
    after = checked_boundary(stage, state)
    baseline: Optional[TVBaseline] = state.tv_baseline
    fingerprint = semantic_fingerprint(state.module)
    mismatches: Tuple[str, ...] = ()
    if baseline is None or (baseline.seed, baseline.max_ops) != (seed, max_ops):
        # The first boundary, or incompatible reference inputs: start over,
        # keeping the checks recorded so far.
        behavior = execute(state.module, seed, max_ops)
        outcome = "baseline" if behavior is not None else "skipped-budget"
        checks = baseline.checks if baseline is not None else []
        baseline = TVBaseline(fingerprint, behavior, seed, max_ops, checks)
        state.tv_baseline = baseline
        message = f"{after}: recorded reference behavior ({outcome})"
    else:
        if fingerprint == baseline.fingerprint:
            outcome = "static"
        else:
            behavior = execute(state.module, seed, max_ops)
            outcome, mismatches = compare(baseline.behavior, behavior, tolerance)
            # Roll whatever executed forward: a side over the budget keeps
            # the older reference.
            baseline.behavior = behavior or baseline.behavior
            baseline.fingerprint = fingerprint
        detail = f"; first: {mismatches[0]}" if mismatches else ""
        message = f"{after}: {outcome}{detail}"

    baseline.checks.append(StageValidation(after, outcome, mismatches))
    state.emit(
        stage.name,
        message,
        severity="error" if outcome == "mismatch" else "note",
        after=after,
        outcome=outcome,
        mismatches=list(mismatches),
    )
    if outcome == "mismatch":
        raise TranslationValidationError(after, mismatches, baseline.checks)


# ---------------------------------------------------------------------------
# The one-call validator
# ---------------------------------------------------------------------------


def validate_pipeline(
    workload,
    spec_text: Optional[str] = None,
    platform: str = "vu9p-slr",
    seed: int = 0,
    max_ops: int = 0,
    tolerance: float = 0.0,
) -> ValidationReport:
    """Compile ``workload`` through ``spec_text`` validating every boundary.

    Accepts everything ``Compiler.run`` accepts as a workload (registry
    handle, id string, raw module).  Returns a :class:`ValidationReport`
    whose checks are the run's own record, ``state.tv_baseline.checks``;
    a behavioral mismatch aborts the pipeline and lands in ``report.error``
    plus a ``mismatch`` check — it never raises, so sweeps can keep going.
    """
    from ...compiler.driver import DEFAULT_PIPELINE, Compiler
    from ...compiler.spec import StageSpec, insert_checks

    spec_text = spec_text or DEFAULT_PIPELINE
    options: Dict[str, List[str]] = {}
    if seed:
        options["seed"] = [str(seed)]
    if max_ops:
        options["max-ops"] = [str(max_ops)]
    if tolerance:
        options["tolerance"] = [repr(float(tolerance))]
    checked = insert_checks(spec_text, [StageSpec("validate", options)])
    compiler = Compiler.from_spec(checked, platform=platform)
    label = workload.label() if hasattr(workload, "label") else str(workload)
    error: Optional[str] = None
    try:
        checks = compiler.run(workload=workload).tv_baseline.checks
    except TranslationValidationError as exc:
        error, checks = str(exc), list(exc.checks)
    return ValidationReport(
        workload=label,
        spec=spec_text,
        platform=platform,
        checks=checks,
        error=error,
    )


def validate_point(point) -> ValidationReport:
    """Translation-validate one DSE design point's full pipeline."""
    return validate_pipeline(
        point.workload_spec(), point.canonical_spec(), platform=point.platform
    )


# ---------------------------------------------------------------------------
# Legality fuzzer
# ---------------------------------------------------------------------------

#: Small kernel instances the fuzzer mutates (cheap enough to interpret
#: hundreds of times; stencils get short time horizons).
_FUZZ_POOL: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("2mm", {"n": 8}),
    ("3mm", {"n": 8}),
    ("atax", {"n": 8}),
    ("bicg", {"n": 8}),
    ("mvt", {"n": 8}),
    ("gesummv", {"n": 8}),
    ("symm", {"n": 8}),
    ("syr2k", {"n": 8}),
    ("jacobi-2d", {"n": 8, "tsteps": 2}),
    ("seidel-2d", {"n": 8, "tsteps": 2}),
)

#: Relative tolerance for fuzzed kernels with non-integer math (division).
_FUZZ_TOLERANCE = 1e-9


@dataclasses.dataclass
class FuzzReport:
    """Outcome of a seeded legality-fuzz run."""

    applications: int = 0
    #: Transform requests the legality layer refused (the good rejections).
    rejected: int = 0
    #: Applied transforms whose before/after outputs matched.
    validated: int = 0
    #: Of ``validated``, those that left the semantic fingerprint unchanged
    #: (directive-only), validated without executing anything.
    static: int = 0
    #: Silent semantic changes: applied, *and* outputs not shown equal.
    #: Always a bug — either in the transform or in the legality predicate.
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "applications": self.applications,
            "rejected": self.rejected,
            "validated": self.validated,
            "static": self.static,
            "failures": list(self.failures),
        }


def fuzz_transforms(count: int = 200, seed: int = 0) -> FuzzReport:
    """Apply ``count`` random *checked* transforms; each must either raise
    ``TransformLegalityError`` or preserve the module's behavior.

    Ties the PR-8 legality layer to executable ground truth: a predicate
    that wrongly approves a transform shows up as a recorded failure, and
    one that wrongly rejects shows up only as a higher rejection count —
    conservative in the safe direction.  The interpreter runs only where
    its outputs are compared: a rejected request executes nothing, and an
    application that leaves the semantic fingerprint unchanged validates
    statically; any other runs a clone taken before the transform and the
    transformed module.
    """
    from ...dialects.affine import AffineForOp
    from ...transforms.loop_transforms import (
        loop_bands_of,
        permute_band,
        pipeline_loop,
        unroll_loop,
    )
    from ...workloads import as_module, get_workload
    from ..legality import TransformLegalityError

    rng = random.Random(seed)
    report = FuzzReport()
    for _ in range(max(0, int(count))):
        name, params = _FUZZ_POOL[rng.randrange(len(_FUZZ_POOL))]
        workload = get_workload(name).at(**params)
        module = as_module(workload)
        loops = [op for op in module.walk() if isinstance(op, AffineForOp)]
        if not loops:
            continue
        kind = rng.choice(("permute", "unroll", "pipeline"))
        transform: Callable[[], object]
        if kind == "permute":
            bands = [
                band
                for func in module.functions
                for band in loop_bands_of(func)
                if len(band) >= 2
            ]
            if not bands:
                continue
            band = bands[rng.randrange(len(bands))]
            order = list(range(len(band)))
            while order == list(range(len(band))):
                rng.shuffle(order)
            described = f"permute{order}"
            transform = functools.partial(permute_band, band, order, check=True)
        elif kind == "unroll":
            loop = loops[rng.randrange(len(loops))]
            factor = rng.choice((2, 3, 4, 8))
            literal = rng.random() < 0.5
            described = f"unroll x{factor}{' literal' if literal else ''}"
            transform = functools.partial(
                unroll_loop, loop, factor, literal=literal, check=True
            )
        else:
            loop = loops[rng.randrange(len(loops))]
            target_ii = rng.choice((1, 2, 4))
            described = f"pipeline ii={target_ii}"
            transform = functools.partial(pipeline_loop, loop, target_ii, check=True)
        report.applications += 1
        before = module.clone()
        try:
            transform()
        except TransformLegalityError:
            report.rejected += 1
            continue
        if semantic_fingerprint(module) == semantic_fingerprint(before):
            report.validated += 1
            report.static += 1
            continue
        outcome, deltas = compare(
            execute(before, seed, DEFAULT_MAX_OPS),
            execute(module, seed, DEFAULT_MAX_OPS),
            _FUZZ_TOLERANCE,
        )
        if outcome in ("bitwise", "tolerance"):
            report.validated += 1
        else:
            report.failures.append(
                f"{workload.label()}: {described} validated as legal but "
                + (f"changed outputs: {deltas[0]}" if deltas else outcome)
            )
    return report
