"""Tests of translation validation (:mod:`repro.analysis.tv`).

The load-bearing guarantees, pinned:

* every kernel-zoo workload validates through the default pipeline AND the
  four ablation pipelines (the paper's Figure-11 set) — every snapshot-safe
  stage boundary is baseline/static/bitwise/tolerance, never a mismatch;
* deliberately miscompiled modules (the killed-mutant suite: an off-by-one
  loop permutation and an unroll that skips its legality check) are caught
  with a ``mismatch`` and :class:`TranslationValidationError`;
* ``AffineMap.evaluate`` and the interpreter's subscript evaluation agree
  on randomized semi-affine maps (property test);
* the legality fuzzer applies seeded random checked transforms with zero
  silent semantic changes;
* repeated analysis findings deduplicate (stable order, first wins).
"""

import hashlib
import random

import pytest

from repro.analysis import analyze_module
from repro.analysis.rules import AnalysisRule
from repro.analysis.tv import (
    NON_SEMANTIC_ATTRS,
    TranslationValidationError,
    fuzz_transforms,
    interleave_validate,
    semantic_fingerprint,
    validate_pipeline,
)
from repro.analysis.tv.__main__ import main as tv_main
from repro.baselines import (
    ABLATION_MODES,
    ablation_pipeline_spec,
    scalehls_pipeline_spec,
    vitis_pipeline_spec,
)
from repro.compiler.driver import DEFAULT_PIPELINE, Compiler, PipelineObserver
from repro.compiler.stages import CompilationState, get_stage_class
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.dialects.affine_map import AffineMap, constant, dim
from repro.dialects.arith import AddFOp
from repro.dialects.dataflow import NodeOp, ScheduleOp
from repro.dialects.memref import StoreOp
from repro.dialects.affine import AffineApplyOp
from repro.estimation.platform import get_platform
from repro.ir import Builder, FuncOp, MemRefType, ModuleOp, ReturnOp, f32, f64
from repro.ir.interp import diff_results, interpret_module, seed_value
from repro.ir.printer import IRPrinter, print_op
from repro.workloads import as_module, get_workload, iter_workloads

_PLATFORM = get_platform("vu9p-slr")

_SPECS = [("default", DEFAULT_PIPELINE)] + [
    (mode, ablation_pipeline_spec(mode, max_parallel_factor=8))
    for mode in sorted(ABLATION_MODES)
] + [("scalehls", scalehls_pipeline_spec(8)), ("vitis", vitis_pipeline_spec())]

#: Kernels with non-integer math (division/sqrt) need the documented
#: relative tolerance; every other kernel must stay bitwise.
_TOLERANCES = {"correlation": 1e-9}


def _small(handle):
    if "n" in handle.params:
        handle = handle.at(n=8)
    if "tsteps" in handle.params:
        handle = handle.at(tsteps=2)
    return handle


# ---------------------------------------------------------------------------
# The acceptance pin: zoo x (default + ablations + the two baselines), every
# boundary validates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", [handle.definition.name for handle in iter_workloads(kind="kernel")]
)
def test_zoo_validates_across_all_pipelines(name):
    handle = _small(get_workload(name))
    tolerance = _TOLERANCES.get(name, 0.0)
    for spec_name, spec_text in _SPECS:
        report = validate_pipeline(handle, spec_text, tolerance=tolerance)
        detail = [check.to_dict() for check in report.checks]
        assert report.ok, f"{name} x {spec_name}: {report.error}; {detail}"
        outcomes = report.outcomes()
        assert outcomes.get("baseline") == 1, f"{name} x {spec_name}: {outcomes}"
        # Small kernels always fit the interpreter budget: no vacuous passes.
        assert "skipped-budget" not in outcomes, f"{name} x {spec_name}"
        # Beyond the baseline, every boundary proved equivalence.
        assert sum(outcomes.values()) >= 2


def test_bitwise_is_the_common_case_on_the_default_pipeline():
    report = validate_pipeline(_small(get_workload("2mm")))
    outcomes = report.outcomes()
    assert report.ok
    assert outcomes.get("bitwise", 0) >= 1  # structural stages executed
    assert outcomes.get("static", 0) >= 1  # directive-only stages hashed


# ---------------------------------------------------------------------------
# Validate-stage mechanics
# ---------------------------------------------------------------------------


def _counted_nest():
    """for i in 0..4 { for j in 0..6 { arg0[i][j] = 1.0 } } over a 4x6 buffer.

    The asymmetric bounds make IV/bounds mix-ups observable: any mutation
    that runs i to 6 and j to 4 leaves two columns holding their seeds.
    """
    module = ModuleOp.create()
    func = FuncOp.create("main", [MemRefType((4, 6), f64)], top=True)
    module.body.append(func)
    builder = Builder.at_end(func.entry_block)
    outer = builder.insert(AffineForOp.create(0, 4, name_hint="i"))
    with builder.at_end_of(outer.body):
        inner = builder.insert(AffineForOp.create(0, 6, name_hint="j"))
        with builder.at_end_of(inner.body):
            marker = builder.constant(1.0, f64)
            builder.insert(
                AffineStoreOp.create(
                    marker,
                    func.arguments[0],
                    [outer.induction_variable, inner.induction_variable],
                )
            )
    builder.insert(ReturnOp.create())
    return module, outer, inner


def _run_validate(state, **options):
    stage_cls = get_stage_class("validate")
    stage_cls(**options).run(state)


def test_first_boundary_records_baseline():
    module, _, _ = _counted_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state, after="frontend")
    assert state.tv_baseline is not None
    assert [c.outcome for c in state.tv_baseline.checks] == ["baseline"]


def test_directive_only_changes_take_the_static_fast_path():
    module, outer, _ = _counted_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state)
    before = semantic_fingerprint(module)
    outer.set_attr("unroll_factor", 4)
    outer.set_attr("pipeline", True)
    assert semantic_fingerprint(module) == before  # stripped attrs
    _run_validate(state, after="tile")
    assert [c.outcome for c in state.tv_baseline.checks] == ["baseline", "static"]


def test_semantic_change_executes_and_validates_bitwise():
    module, outer, _ = _counted_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state)
    # A semantic but behavior-preserving change: tighten the outer loop's
    # printed form by renaming its IV (name hints are printed, so the
    # fingerprint moves) — outputs stay identical.
    outer.induction_variable.name_hint = "ii"
    _run_validate(state, after="rename")
    assert [c.outcome for c in state.tv_baseline.checks] == ["baseline", "bitwise"]


@pytest.mark.parametrize("workload", ["2mm@n=8", "lenet"])
def test_semantic_fingerprint_prints_what_clone_and_strip_printed(workload):
    """The fingerprint skips attributes while printing; it used to clone the
    module, pop them and print the clone.  Same text at every boundary."""
    texts = []

    class Boundaries(PipelineObserver):
        def on_stage_end(self, stage, state, seconds):
            compare(state.module)

    def compare(module):
        stripped = module.clone()
        for op in stripped.walk():
            for name in NON_SEMANTIC_ATTRS:
                op.attributes.pop(name, None)
        text = IRPrinter(skip_attrs=NON_SEMANTIC_ATTRS).print_op(module)
        assert text == print_op(stripped)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
        assert semantic_fingerprint(module) == digest
        texts.append(text)

    handle = get_workload(workload)
    compare(as_module(handle))
    Compiler.from_spec(DEFAULT_PIPELINE, observers=[Boundaries()]).run(
        workload=handle
    )
    assert len(texts) == 1 + len(DEFAULT_PIPELINE.split(","))
    assert len(set(texts)) > 1  # the boundaries are not all one module


def test_non_semantic_attrs_catalog_is_sorted():
    assert sorted(NON_SEMANTIC_ATTRS) == list(sorted(NON_SEMANTIC_ATTRS))
    assert "unroll_factor" in NON_SEMANTIC_ATTRS
    assert "map" not in NON_SEMANTIC_ATTRS  # addressing is semantic


def test_interleave_validate_wraps_every_stage():
    spec = interleave_validate("balance,tile{size=4}")
    stages = spec.split(",")
    # validate{after=frontend}, balance, validate, tile{...}, ... -> the
    # spec grammar splits tile{size=4} cleanly because options here have
    # no commas; count the validate stages instead of parsing.
    assert spec.startswith("validate{after=frontend}")
    assert stages.count("validate{after=balance}") == 1
    assert "validate{after=tile}" in spec
    # Existing validate stages are not doubled.
    assert interleave_validate(spec).count("validate") == spec.count("validate")


# ---------------------------------------------------------------------------
# Killed mutants: deliberate miscompiles tv must catch
# ---------------------------------------------------------------------------


def _mutant_off_by_one_permute(outer, inner):
    """A broken loop interchange: swaps bounds but forgets the IV uses."""
    outer_bounds = (outer.lower_bound, outer.upper_bound, outer.step)
    inner_bounds = (inner.lower_bound, inner.upper_bound, inner.step)
    outer.set_bounds(*inner_bounds)
    inner.set_bounds(*outer_bounds)


def _mutant_unroll_skipping_legality(loop):
    """A broken literal 2x unroll: clones the body at iv+1 but forgets to
    scale the loop step, so every iteration double-executes."""
    body_ops = [
        op
        for op in list(loop.body.operations)
        if op.name != "affine.yield"
    ]
    builder = Builder.at_end(loop.body)
    shifted = builder.insert(
        AffineApplyOp.create(
            AffineMap(1, 0, [dim(0) + constant(1)]), [loop.induction_variable]
        )
    )
    mapping = {loop.induction_variable: shifted.result()}
    for op in body_ops:
        builder.insert(op.clone(mapping))
    # ... and no loop.set_bounds(step * 2): the miscompile.


def _accumulating_nest():
    """for i in 0..8 { arg0[0] = arg0[0] + arg0[i] } — unroll-sensitive."""
    module = ModuleOp.create()
    func = FuncOp.create("main", [MemRefType((8,), f64)], top=True)
    module.body.append(func)
    builder = Builder.at_end(func.entry_block)
    loop = builder.insert(AffineForOp.create(0, 8, name_hint="i"))
    with builder.at_end_of(loop.body):
        zero = builder.index_constant(0)
        acc = builder.insert(AffineLoadOp.create(func.arguments[0], [zero]))
        term = builder.insert(
            AffineLoadOp.create(func.arguments[0], [loop.induction_variable])
        )
        total = builder.insert(AddFOp.create(acc.result(), term.result()))
        builder.insert(
            AffineStoreOp.create(total.result(), func.arguments[0], [zero])
        )
    builder.insert(ReturnOp.create())
    return module, loop


def test_mutant_permute_is_caught():
    module, outer, inner = _counted_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state)
    _mutant_off_by_one_permute(outer, inner)
    with pytest.raises(TranslationValidationError, match="permute"):
        _run_validate(state, after="permute")
    mismatch = state.tv_baseline.checks[-1]
    assert mismatch.outcome == "mismatch"
    assert mismatch.mismatches  # names the first differing cell
    errors = [d for d in state.diagnostics if d.severity == "error"]
    assert errors and errors[0].data["outcome"] == "mismatch"


def test_mutant_unroll_is_caught():
    module, loop = _accumulating_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state)
    _mutant_unroll_skipping_legality(loop)
    with pytest.raises(TranslationValidationError, match="unroll"):
        _run_validate(state, after="unroll")
    assert state.tv_baseline.checks[-1].outcome == "mismatch"


def test_correct_permute_validates():
    from repro.transforms.loop_transforms import permute_band

    module, outer, inner = _counted_nest()
    state = CompilationState(module=module, platform=_PLATFORM)
    _run_validate(state)
    permute_band([outer, inner], [1, 0])
    _run_validate(state, after="permute")
    assert state.tv_baseline.checks[-1].outcome in ("static", "bitwise")


# ---------------------------------------------------------------------------
# Property test: AffineMap.evaluate vs the interpreter's subscripts
# ---------------------------------------------------------------------------

_MAP_SIZE = 64


def _random_semi_affine(rng, num_dims, depth=0):
    """Random non-negative semi-affine expr over +, *, floordiv and mod."""
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return dim(rng.randrange(num_dims))
        return constant(rng.randint(0, 5))
    left = _random_semi_affine(rng, num_dims, depth + 1)
    kind = rng.choice(("add", "mul", "floordiv", "mod"))
    if kind == "add":
        return left + _random_semi_affine(rng, num_dims, depth + 1)
    if kind == "mul":
        return left * rng.randint(1, 4)
    if kind == "floordiv":
        return left // rng.randint(1, 4)
    return left % rng.randint(1, 6)


def test_affine_map_evaluation_matches_interpreter():
    rng = random.Random(1234)
    for _ in range(60):
        num_dims = rng.randint(1, 3)
        expr = _random_semi_affine(rng, num_dims) % _MAP_SIZE
        amap = AffineMap(num_dims, 0, [expr])
        dims = [rng.randint(0, 9) for _ in range(num_dims)]
        expected = int(expr.evaluate(dims))

        module = ModuleOp.create()
        func = FuncOp.create("main", [MemRefType((_MAP_SIZE,), f64)], top=True)
        module.body.append(func)
        builder = Builder.at_end(func.entry_block)
        operands = [builder.index_constant(value) for value in dims]
        applied = builder.insert(AffineApplyOp.create(amap, operands))
        marker = builder.constant(-1.0, f64)  # seeds are positive
        builder.insert(
            StoreOp.create(marker, func.arguments[0], [applied.result()])
        )
        builder.insert(ReturnOp.create())

        cells = interpret_module(module).output_map["arg0"]
        changed = [i for i, value in enumerate(cells) if value == -1.0]
        assert changed == [expected], f"{amap} over dims={dims}"


# ---------------------------------------------------------------------------
# Legality fuzzer
# ---------------------------------------------------------------------------


def test_fuzzer_finds_no_silent_semantic_changes():
    report = fuzz_transforms(count=40, seed=7)
    assert report.ok, report.failures
    assert report.applications > 0
    assert report.rejected + report.validated == report.applications
    assert report.rejected > 0  # the legality layer actually fires
    assert report.validated > 0  # ... and legal transforms actually apply


def test_literal_unroll_epilogue_on_non_dividing_factor():
    """Regression for a fuzzer catch: literal unroll by a factor that does
    not divide the trip count used to run the last group past the upper
    bound (jacobi-2d trip 6 x4 executed i=7,8).  The transform now splits
    the trailing iterations into an epilogue loop, so semantics hold."""
    from repro.transforms.loop_transforms import unroll_loop

    handle = get_workload("jacobi-2d").at(n=8, tsteps=2)
    module = as_module(handle)
    before = interpret_module(module)
    loop = next(
        op
        for op in module.walk()
        if isinstance(op, AffineForOp) and op.trip_count == 6
    )
    parent = loop.parent_block
    ops_before = len(parent.operations)
    unroll_loop(loop, 4, literal=True, check=True)
    assert len(parent.operations) == ops_before + 1  # epilogue loop added
    assert diff_results(before, interpret_module(module)) == []


def test_fuzzer_is_seeded_and_deterministic():
    first = fuzz_transforms(count=15, seed=3)
    second = fuzz_transforms(count=15, seed=3)
    assert first.to_dict() == second.to_dict()
    assert fuzz_transforms(count=15, seed=4).to_dict() != first.to_dict()


# ---------------------------------------------------------------------------
# Diagnostic deduplication (analysis engine regression)
# ---------------------------------------------------------------------------


class _RepeatingRule(AnalysisRule):
    rule_id = "test-repeat"
    severity = "warning"
    description = "emits one finding twice plus a distinct sibling"

    def check(self, context):
        anchor = context.nodes[0]
        # The same op, the same structured data: the classic multi-access-
        # pair repetition that must collapse into one finding.
        yield context.diagnostic(self, "first wording", op=anchor, kind="dup")
        yield context.diagnostic(self, "second wording", op=anchor, kind="dup")
        # Distinct structured data on the same op must survive.
        yield context.diagnostic(self, "other subject", op=anchor, kind="other")


def _schedule_module():
    func = FuncOp.create("f", input_types=[MemRefType((8,), f32, "dram")])
    schedule = ScheduleOp.create(operands=list(func.arguments), label="s")
    Builder.at_end(func.entry_block).insert(schedule)
    Builder.at_end(func.entry_block).insert(ReturnOp.create())
    builder = Builder.at_end(schedule.body)
    builder.insert(NodeOp.create(outputs=[schedule.body.arguments[0]], label="n"))
    module = ModuleOp.create("m")
    module.append(func)
    return module


def test_repeated_findings_deduplicate_first_location_wins():
    report = analyze_module(_schedule_module(), rules=[_RepeatingRule()])
    messages = [d.message for d in report.diagnostics]
    assert messages == ["first wording", "other subject"]
    assert report.deduplicated == 1
    assert report.to_dict()["deduplicated"] == 1


def test_dedup_key_respects_distinct_anchors():
    class _TwoAnchorRule(AnalysisRule):
        rule_id = "test-two-anchors"
        severity = "warning"
        description = "same data, different ops"

        def check(self, context):
            yield context.diagnostic(
                self, "same", op=context.nodes[0], kind="dup"
            )
            yield context.diagnostic(self, "same", op=context.schedule, kind="dup")

    report = analyze_module(_schedule_module(), rules=[_TwoAnchorRule()])
    assert len(report.diagnostics) == 2
    assert report.deduplicated == 0


# ---------------------------------------------------------------------------
# CLIs
# ---------------------------------------------------------------------------


def test_tv_cli_sweep_and_json(tmp_path, capsys):
    out = tmp_path / "tv.json"
    code = tv_main(["--workload", "2mm", "--json", str(out), "--verbose"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "0 failure(s)" in printed
    payload = __import__("json").loads(out.read_text())
    assert payload["failures"] == 0
    assert payload["runs"][0]["ok"] is True


def test_tv_cli_rejects_a_malformed_workload_id(capsys):
    # Regression: unknown names and malformed ids escaped as tracebacks.
    for workload in ("2mm@n=8,n=16", "2mn"):
        with pytest.raises(SystemExit):
            tv_main(["--workload", workload])
        assert "--workload:" in capsys.readouterr().err


def test_tv_cli_fuzz_mode(capsys):
    assert tv_main(["--fuzz", "--count", "8", "--seed", "2"]) == 0
    assert "silent change(s)" in capsys.readouterr().out


def test_compiler_cli_validate_flag(capsys):
    from repro.compiler.__main__ import main as compiler_main

    code = compiler_main(["--workload", "2mm@n=8", "--validate"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "validate" in printed


def test_validate_tolerance_requires_validate(capsys):
    from repro.compiler.__main__ import main as compiler_main

    with pytest.raises(SystemExit):
        compiler_main(["--workload", "2mm@n=8", "--validate-tolerance", "1e-9"])
