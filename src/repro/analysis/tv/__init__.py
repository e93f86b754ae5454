"""Translation validation: per-stage semantic equivalence checking.

Every pipeline stage boundary becomes a checkable claim: the module after
the stage must compute the same outputs as the module before it, over the
seeded reference inputs of :mod:`repro.ir.interp`.  Following the
CounterPoint idiom (concrete measurements refute analytic assumptions),
"legal" is no longer argued — it is executed.

Two equivalence paths, cheapest first:

* **Static fast path** — :func:`semantic_fingerprint` strips every
  directive/bookkeeping attribute (:data:`NON_SEMANTIC_ATTRS`) and hashes
  the printed module.  Stages that only annotate (``tile``,
  ``parallelize``, unroll/pipeline directives) leave access maps, loop
  bounds and op structure untouched, so their boundary validates without
  executing anything.
* **Executed path** — both module versions run through the reference
  interpreter and their outputs diff *bitwise* by default.  Inputs are
  deterministic small integers, so f64 arithmetic is exact and even
  reassociating transforms stay byte-identical on kernels without
  division; kernels with genuinely non-integer math (``divf``/``sqrt``/
  ``exp``) pass a documented relative ``tolerance`` instead.

A module too large for the interpreter's op budget reports an honest
``skipped-budget`` — never a silently vacuous "validated".

Wired in at four layers:

* the registered ``validate`` compiler stage (interleaved by
  ``python -m repro.compiler --validate``; exit code 5 on a mismatch);
* ircache snapshot self-verification (:meth:`IRSnapshotCache.store`
  executes the parsed snapshot against the live state before writing);
* ``explore(validate_frontier=True)`` — promoted Pareto points are
  semantics-checked before being reported;
* the legality fuzzer (``python -m repro.analysis.tv --fuzz``): every
  random checked transform either raises ``TransformLegalityError`` or
  validates — no third outcome.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ...ir.interp import (
    DEFAULT_MAX_OPS,
    ExecutionResult,
    InterpreterBudgetError,
    InterpreterError,
    diff_results,
    interpret_module,
)

__all__ = [
    "NON_SEMANTIC_ATTRS",
    "FuzzReport",
    "StageValidation",
    "TranslationValidationError",
    "TVBaseline",
    "ValidationReport",
    "fuzz_transforms",
    "interleave_validate",
    "run_validate_stage",
    "semantic_fingerprint",
    "validate_pipeline",
    "validate_point",
]

#: Attributes that never change a module's observable behavior: directives
#: consumed by the QoR estimator / HLS backend (unroll, pipeline, tiling,
#: partitioning hints) and pure bookkeeping.  Stripped before
#: fingerprinting, so directive-only stages take the static fast path.
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
    """

    fingerprint: str
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
        return self.error is None and all(
            check.outcome != "mismatch" for check in self.checks
        )

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


def semantic_fingerprint(module) -> str:
    """Content hash of ``module`` modulo non-semantic attributes.

    Equal fingerprints prove equivalence structurally: access maps, loop
    bounds, op sequence and types are all part of the printed form, so two
    modules that differ only in directives (:data:`NON_SEMANTIC_ATTRS`)
    hash identically and need no execution.
    """
    from ...ir.printer import IRPrinter

    text = IRPrinter(skip_attrs=NON_SEMANTIC_ATTRS).print_op(module)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# ---------------------------------------------------------------------------
# The validate stage body
# ---------------------------------------------------------------------------


def _execute(module, seed: int, max_ops: int) -> Optional[ExecutionResult]:
    """Interpret ``module``; None when it exceeds the op budget."""
    try:
        return interpret_module(module, seed=seed, max_ops=max_ops)
    except InterpreterBudgetError:
        return None


def run_validate_stage(stage, state) -> None:
    """Body of the registered ``validate`` compiler stage.

    The first validate boundary of a run records the baseline
    (fingerprint + executed behavior) into ``state.tv_baseline``; every
    later one proves equivalence against it — statically when the
    semantic fingerprint is unchanged, by execution otherwise — then
    rolls the baseline forward.  A mismatch emits an error diagnostic and
    raises :class:`TranslationValidationError`.
    """
    seed = int(stage.seed)
    max_ops = int(stage.max_ops) or DEFAULT_MAX_OPS
    tolerance = float(stage.tolerance)
    after = stage.after or "frontend"
    baseline: Optional[TVBaseline] = state.tv_baseline
    if baseline is not None and (baseline.seed, baseline.max_ops) != (seed, max_ops):
        baseline = None  # incompatible reference inputs: start over
    fingerprint = semantic_fingerprint(state.module)

    if baseline is None:
        behavior = _execute(state.module, seed, max_ops)
        outcome = "baseline" if behavior is not None else "skipped-budget"
        state.tv_baseline = TVBaseline(fingerprint, behavior, seed, max_ops)
        check = StageValidation(after, outcome)
        state.tv_baseline.checks.append(check)
        state.emit(
            stage.name,
            f"{after}: recorded reference behavior ({outcome})",
            after=after,
            outcome=outcome,
        )
        return

    mismatches: Tuple[str, ...] = ()
    if fingerprint == baseline.fingerprint:
        outcome = "static"
    else:
        behavior = _execute(state.module, seed, max_ops)
        if behavior is None or baseline.behavior is None:
            # One side exceeded the interpreter budget: be honest, never
            # vacuously "validated".  Roll whatever executed forward.
            outcome = "skipped-budget"
            baseline.behavior = behavior or baseline.behavior
        else:
            try:
                exact = diff_results(baseline.behavior, behavior)
            except InterpreterError as error:  # result shapes diverged
                exact = [str(error)]
            if not exact:
                outcome = "bitwise"
            elif tolerance > 0 and not diff_results(
                baseline.behavior, behavior, tolerance=tolerance
            ):
                outcome = "tolerance"
            else:
                outcome = "mismatch"
                mismatches = tuple(exact[:8])
            baseline.behavior = behavior
        baseline.fingerprint = fingerprint

    check = StageValidation(after, outcome, mismatches)
    baseline.checks.append(check)
    state.tv_baseline = baseline
    severity = "error" if outcome == "mismatch" else "note"
    detail = f"; first: {mismatches[0]}" if mismatches else ""
    state.emit(
        stage.name,
        f"{after}: {outcome}{detail}",
        severity=severity,
        after=after,
        outcome=outcome,
        mismatches=list(mismatches),
    )
    if outcome == "mismatch":
        raise TranslationValidationError(after, mismatches, baseline.checks)


# ---------------------------------------------------------------------------
# Pipeline interleaving and the one-call validator
# ---------------------------------------------------------------------------


def interleave_validate(
    spec_text: str,
    seed: int = 0,
    max_ops: int = 0,
    tolerance: float = 0.0,
) -> str:
    """Insert a ``validate`` stage before the pipeline and after every stage.

    Parses through the real spec grammar (stage options contain commas),
    tags each inserted stage with the label of the boundary it checks, and
    returns the printed interleaved spec.  Existing ``validate`` stages
    are left alone and not doubled.
    """
    from ...compiler.spec import StageSpec, parse_pipeline

    def _validate_spec(after: str) -> StageSpec:
        options: Dict[str, List[str]] = {"after": [after]}
        if seed:
            options["seed"] = [str(seed)]
        if max_ops:
            options["max-ops"] = [str(max_ops)]
        if tolerance:
            options["tolerance"] = [repr(float(tolerance))]
        return StageSpec(name="validate", options=options)

    parsed = parse_pipeline(spec_text).stages
    stages: List[StageSpec] = []
    if not parsed or parsed[0].name != "validate":
        stages.append(_validate_spec("frontend"))
    for index, stage_spec in enumerate(parsed):
        stages.append(stage_spec)
        followed_by_validate = (
            index + 1 < len(parsed) and parsed[index + 1].name == "validate"
        )
        if stage_spec.name != "validate" and not followed_by_validate:
            stages.append(_validate_spec(stage_spec.name))
    return ",".join(stage.print() for stage in stages)


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
    handle, id string, raw module).  Returns a :class:`ValidationReport`;
    a behavioral mismatch aborts the pipeline and lands in ``report.error``
    plus a ``mismatch`` check — it never raises, so sweeps can keep going.
    """
    from ...compiler.driver import DEFAULT_PIPELINE, Compiler, DiagnosticsObserver

    spec_text = spec_text or DEFAULT_PIPELINE
    interleaved = interleave_validate(
        spec_text, seed=seed, max_ops=max_ops, tolerance=tolerance
    )
    diagnostics = DiagnosticsObserver()
    compiler = Compiler.from_spec(
        interleaved, platform=platform, observers=[diagnostics]
    )
    label = workload.label() if hasattr(workload, "label") else str(workload)
    error: Optional[str] = None
    try:
        compiler.run(workload=workload)
    except TranslationValidationError as exc:
        error = str(exc)
    checks = [
        StageValidation(
            stage=str(d.data.get("after", "?")),
            outcome=str(d.data.get("outcome", "?")),
            mismatches=tuple(d.data.get("mismatches", ())),
        )
        for d in diagnostics.diagnostics
        if d.stage == "validate"
    ]
    return ValidationReport(
        workload=label,
        spec=spec_text,
        platform=platform,
        checks=checks,
        error=error,
    )


def validate_point(
    point,
    seed: int = 0,
    max_ops: int = 0,
    tolerance: float = 0.0,
) -> ValidationReport:
    """Translation-validate one DSE design point's full pipeline."""
    compiler = point.compiler()
    return validate_pipeline(
        point.workload_spec(),
        compiler.spec_text(),
        platform=point.platform,
        seed=seed,
        max_ops=max_ops,
        tolerance=tolerance,
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
    #: Silent semantic changes: applied, *and* outputs differ.  Always a
    #: bug — either in the transform or in the legality predicate.
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "applications": self.applications,
            "rejected": self.rejected,
            "validated": self.validated,
            "failures": list(self.failures),
        }


def _all_loops(module) -> List:
    from ...dialects.affine import AffineForOp

    return [op for op in module.walk() if isinstance(op, AffineForOp)]


def fuzz_transforms(
    count: int = 200, seed: int = 0, tolerance: float = _FUZZ_TOLERANCE
) -> FuzzReport:
    """Apply ``count`` random *checked* transforms; each must either raise
    ``TransformLegalityError`` or preserve the module's behavior.

    Ties the PR-8 legality layer to executable ground truth: a predicate
    that wrongly approves a transform shows up as a recorded failure, and
    one that wrongly rejects shows up only as a higher rejection count —
    conservative in the safe direction.
    """
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
        before = interpret_module(module, seed=seed)
        loops = _all_loops(module)
        if not loops:
            continue
        report.applications += 1
        kind = rng.choice(("permute", "unroll", "pipeline"))
        described = kind
        try:
            if kind == "permute":
                bands = [
                    band
                    for func in module.functions
                    for band in loop_bands_of(func)
                    if len(band) >= 2
                ]
                if not bands:
                    report.applications -= 1
                    continue
                band = bands[rng.randrange(len(bands))]
                order = list(range(len(band)))
                while order == list(range(len(band))):
                    rng.shuffle(order)
                described = f"permute{order}"
                permute_band(band, order, check=True)
            elif kind == "unroll":
                loop = loops[rng.randrange(len(loops))]
                factor = rng.choice((2, 3, 4, 8))
                literal = rng.random() < 0.5
                described = f"unroll x{factor}{' literal' if literal else ''}"
                unroll_loop(loop, factor, literal=literal, check=True)
            else:
                loop = loops[rng.randrange(len(loops))]
                target_ii = rng.choice((1, 2, 4))
                described = f"pipeline ii={target_ii}"
                pipeline_loop(loop, target_ii, check=True)
        except TransformLegalityError:
            report.rejected += 1
            continue
        after = interpret_module(module, seed=seed)
        deltas = diff_results(before, after, tolerance=tolerance)
        if deltas:
            report.failures.append(
                f"{workload.label()}: {described} validated as legal but "
                f"changed outputs: {deltas[0]}"
            )
        else:
            report.validated += 1
    return report
