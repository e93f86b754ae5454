"""Tests of the static dataflow soundness analyzer (:mod:`repro.analysis`).

Covers the four built-in rules on hand-built schedules, diagnostic
locations against the printed IR, ``lint_suppress`` filtering, the ``lint``
compiler stage (observer flow plus ``fail-on``), the opt-in per-stage IR
verification, the DSE pre-filter verdicts, and both CLIs.  The differential
soundness properties (deadlock flags vs the simulator, zoo cleanliness)
live in ``test_analysis_soundness.py``.
"""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    SUPPRESS_ATTR,
    analyze_module,
    available_rules,
    check_point,
    default_rules,
    locate_ops,
    severity_rank,
)
from repro.analysis.engine import ScheduleContext
from repro.analysis.checkers import TokenBalanceRule
from repro.compiler import Compiler
from repro.compiler.stages import CompilationState, LintStage
from repro.dialects.dataflow import BufferOp, NodeOp, ScheduleOp
from repro.estimation.platform import get_platform
from repro.ir import Builder, FuncOp, MemRefType, ModuleOp, f32
from repro.ir.builtin import ReturnOp
from repro.workloads import as_module


def _make_buffer(builder, depth=2, name="buf"):
    return builder.insert(
        BufferOp.create(MemRefType((8,), f32), depth=depth, name_hint=name)
    )


def _empty_module(num_args=1):
    func = FuncOp.create(
        "f", input_types=[MemRefType((8,), f32, "dram")] * num_args
    )
    schedule = ScheduleOp.create(operands=list(func.arguments), label="s")
    Builder.at_end(func.entry_block).insert(schedule)
    Builder.at_end(func.entry_block).insert(ReturnOp.create())
    module = ModuleOp.create("m")
    module.append(func)
    return module, schedule


def cycle_module(cap_fwd=1, cap_back=1):
    """Two nodes in a feedback loop through buffers of the given depths."""
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    fwd = _make_buffer(builder, depth=cap_fwd, name="fwd")
    back = _make_buffer(builder, depth=cap_back, name="back")
    builder.insert(
        NodeOp.create(
            inputs=[back.result()], outputs=[fwd.result()], label="head"
        )
    )
    builder.insert(
        NodeOp.create(
            inputs=[fwd.result()],
            outputs=[back.result(), schedule.body.arguments[0]],
            label="tail",
        )
    )
    return module, schedule


def race_module(reader_first=False):
    """Two unordered writers of one schedule argument (plus a reader)."""
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    target = schedule.body.arguments[0]
    if reader_first:
        builder.insert(NodeOp.create(inputs=[target], label="reader"))
        builder.insert(NodeOp.create(outputs=[target], label="writer"))
    else:
        builder.insert(NodeOp.create(outputs=[target], label="w1"))
        builder.insert(NodeOp.create(outputs=[target], label="w2"))
    return module, schedule


def shortcut_module(shortcut_depth=2):
    """A 4-node chain plus a shortcut buffer across it (slack 3)."""
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    chain = [
        _make_buffer(builder, depth=2, name=f"m{i}") for i in range(3)
    ]
    shortcut = _make_buffer(builder, depth=shortcut_depth, name="shortcut")
    values = [schedule.body.arguments[0], *[b.result() for b in chain]]
    builder.insert(
        NodeOp.create(
            inputs=[values[0]],
            outputs=[chain[0].result(), shortcut.result()],
            label="n0",
        )
    )
    for i in range(1, 3):
        builder.insert(
            NodeOp.create(
                inputs=[chain[i - 1].result()],
                outputs=[chain[i].result()],
                label=f"n{i}",
            )
        )
    builder.insert(
        NodeOp.create(
            inputs=[chain[2].result(), shortcut.result()], label="n3"
        )
    )
    return module, schedule


# ----------------------------------------------------------------- framework
def test_rule_catalog_and_registry():
    assert available_rules() == [
        "deadlock",
        "token-balance",
        "memory-race",
        "buffer-sizing",
        "loop-carried-race",
        "illegal-unroll",
        "bank-conflict",
    ]
    assert len(default_rules()) == 7
    assert [r.rule_id for r in default_rules(only=["deadlock"])] == ["deadlock"]
    with pytest.raises(ValueError):
        default_rules(only=["bogus"])
    assert severity_rank("error") > severity_rank("warning") > severity_rank("note")
    with pytest.raises(ValueError):
        severity_rank("fatal")


def test_diagnostics_carry_printed_ir_locations():
    module, schedule = cycle_module(1, 1)
    text, locations = locate_ops(module)
    report = analyze_module(module, only=["deadlock"])
    assert len(report.diagnostics) == 1
    finding = report.diagnostics[0]
    assert finding.schedule == "s"
    assert finding.location is not None
    # The anchor is the first cycle member: its printed header line.
    lines = text.split("\n")
    assert "node" in lines[finding.location.line - 1]
    assert lines[finding.location.line - 1].strip() == finding.location.snippet
    # The offset points at the header token within the whole printed text.
    assert text[finding.location.offset :].startswith(
        finding.location.snippet.split(" ")[0]
    )
    payload = finding.to_dict()
    assert payload["rule"] == "deadlock"
    assert payload["line"] == finding.location.line
    json.dumps(payload)  # JSON-safe (no IR objects leak through `data`)


def test_suppression_attribute_drops_findings():
    module, schedule = cycle_module(1, 1)
    assert analyze_module(module, only=["deadlock"]).diagnostics
    schedule.set_attr(SUPPRESS_ATTR, ["deadlock"])
    report = analyze_module(module, only=["deadlock"])
    assert not report.diagnostics
    assert report.suppressed == 1
    # Wildcard and unrelated-rule forms.
    schedule.set_attr(SUPPRESS_ATTR, ["token-balance"])
    assert analyze_module(module, only=["deadlock"]).diagnostics
    schedule.set_attr(SUPPRESS_ATTR, "*")
    assert not analyze_module(module, only=["deadlock"]).diagnostics


# ------------------------------------------------------------------- checkers
def test_deadlock_rule_respects_capacity():
    starved, _ = cycle_module(1, 1)
    report = analyze_module(starved, only=["deadlock"])
    assert [d.severity for d in report.diagnostics] == ["error"]
    assert "head" in report.diagnostics[0].message
    buffered, _ = cycle_module(2, 2)
    assert not analyze_module(buffered, only=["deadlock"]).diagnostics


def test_memory_race_rule_orders_by_channels():
    module, _ = race_module()
    report = analyze_module(module, only=["memory-race"])
    assert [d.severity for d in report.diagnostics] == ["error"]
    assert report.diagnostics[0].data["kind"] == "write-write"
    # Reader before writer in program order: no ordering channel exists
    # (build_channels only connects writer->later reader), so WAR warning.
    module, _ = race_module(reader_first=True)
    report = analyze_module(module, only=["memory-race"])
    assert [d.severity for d in report.diagnostics] == ["warning"]
    assert report.diagnostics[0].data["kind"] == "write-read"


def test_memory_race_clean_on_ordered_producer_consumer():
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    mid = _make_buffer(builder, name="mid")
    builder.insert(
        NodeOp.create(
            inputs=[schedule.body.arguments[0]],
            outputs=[mid.result()],
            label="p",
        )
    )
    builder.insert(
        NodeOp.create(
            inputs=[mid.result()],
            outputs=[schedule.body.arguments[0]],
            label="c",
        )
    )
    assert not analyze_module(module, only=["memory-race"]).diagnostics


def test_token_balance_rule_flags_capacity_starved_rate_gap():
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    mid = _make_buffer(builder, depth=2, name="mid")
    builder.insert(
        NodeOp.create(
            inputs=[schedule.body.arguments[0]],
            outputs=[mid.result()],
            label="fast",
        )
    )
    builder.insert(NodeOp.create(inputs=[mid.result()], label="slow"))
    context = ScheduleContext(schedule, get_platform("vu9p-slr"))
    context._intervals = [1.0, 8.0]  # 8x rate gap over a 2-deep channel
    findings = list(TokenBalanceRule().check(context))
    assert len(findings) == 1
    assert findings[0].data["ratio"] == pytest.approx(8.0)
    # A channel deep enough to smooth the gap is clean.
    context = ScheduleContext(schedule, get_platform("vu9p-slr"))
    context._intervals = [1.0, 8.0]
    mid.set_depth(8)
    context.channels = [
        c.__class__(c.producer, c.consumer, 8) for c in context.channels
    ]
    assert not list(TokenBalanceRule().check(context))


def test_buffer_sizing_rule_mirrors_the_balance_model():
    undersized, _ = shortcut_module(shortcut_depth=2)
    report = analyze_module(undersized, only=["buffer-sizing"])
    assert [d.severity for d in report.diagnostics] == ["warning"]
    assert report.diagnostics[0].data["kind"] == "undersized"
    assert report.diagnostics[0].data["required"] == 4  # slack 3 + 1
    balanced, _ = shortcut_module(shortcut_depth=4)
    assert not analyze_module(balanced, only=["buffer-sizing"]).diagnostics
    # Running the real balance stage must silence the lint (the model and
    # the transform share one slack predicate).
    from repro.hida.dataflow_opt import balance_data_paths

    module, schedule = shortcut_module(shortcut_depth=2)
    balance_data_paths(schedule)
    assert not analyze_module(module, only=["buffer-sizing"]).diagnostics


def test_buffer_sizing_rule_notes_oversized_buffers():
    module, schedule = _empty_module()
    builder = Builder.at_end(schedule.body)
    fat = _make_buffer(builder, depth=10, name="fat")
    builder.insert(
        NodeOp.create(
            inputs=[schedule.body.arguments[0]],
            outputs=[fat.result()],
            label="p",
        )
    )
    builder.insert(NodeOp.create(inputs=[fat.result()], label="c"))
    report = analyze_module(module, only=["buffer-sizing"])
    assert [d.severity for d in report.diagnostics] == ["note"]
    assert report.diagnostics[0].data["kind"] == "oversized"


# ------------------------------------------------------------ lint stage
def test_lint_stage_emits_findings_as_pipeline_diagnostics():
    module, _ = cycle_module(1, 1)
    state = CompilationState(module=module, platform=get_platform("vu9p-slr"))
    LintStage().run(state)
    lint = [d for d in state.diagnostics if d.stage == "lint"]
    assert lint and lint[0].severity == "error"
    assert lint[0].data["rule"] == "deadlock"
    assert "line" in lint[0].data


def test_lint_stage_fail_on_threshold():
    module, _ = cycle_module(1, 1)
    state = CompilationState(module=module, platform=get_platform("vu9p-slr"))
    with pytest.raises(AnalysisError, match="deadlock"):
        LintStage(fail_on="error").run(state)
    # Below the threshold (or clean designs) never raise.
    clean, _ = cycle_module(2, 2)
    state = CompilationState(module=clean, platform=get_platform("vu9p-slr"))
    LintStage(fail_on="note").run(state)
    # The stage round-trips through the textual spec layer.
    compiler = Compiler.from_spec(
        "construct-dataflow,lower-structural,estimate,lint{fail-on=error}"
    )
    assert compiler.spec_text().endswith("lint{fail-on=error}")


def test_lint_stage_runs_in_a_real_pipeline():
    compiler = Compiler.from_spec(
        "construct-dataflow,lower-linalg,lower-structural,"
        "parallelize{factor=4},estimate,lint{fail-on=error}",
        platform="zu3eg",
    )
    result = compiler.run(as_module("2mm"))  # clean design: must not raise
    assert result.estimate is not None
    assert result.stage_timings[-1][0] == "lint"


# --------------------------------------------------------------- verify wiring
def test_verify_each_surfaces_structured_diagnostics():
    from repro.compiler.driver import DiagnosticsObserver
    from repro.compiler.stages import CompilationStage
    from repro.dialects.arith import AddFOp
    from repro.ir import ConstantOp
    from repro.ir.verifier import VerificationError

    class CorruptStage(CompilationStage):
        name = "corrupt-for-test"

        def run(self, state):
            func = state.module.functions[0]
            outside = Builder.at_start(func.entry_block).insert(
                ConstantOp.create(1.0, f32)
            )
            node = NodeOp.create(label="bad")
            Builder.at_end(func.entry_block).insert(node)
            Builder.at_end(node.body).insert(
                AddFOp.create(outside.result(), outside.result())
            )

    observer = DiagnosticsObserver()
    compiler = Compiler(
        [CorruptStage()], platform="zu3eg", verify_each=True,
        observers=[observer],
    )
    with pytest.raises(VerificationError, match="corrupt-for-test"):
        compiler.run(as_module("2mm"))
    errors = [d for d in observer.diagnostics if d.severity == "error"]
    assert errors and errors[0].stage == "verify"
    assert errors[0].data["after"] == "corrupt-for-test"


# ----------------------------------------------------------------- pre-filter
class _FakePoint:
    """Duck-typed DesignPoint over a pre-built module (unit-test only)."""

    workload = "synthetic"
    platform = "vu9p-slr"

    def __init__(self, module, spec):
        self._module = module
        self._spec = spec

    def compiler(self):
        return Compiler.from_spec(self._spec, platform=self.platform)

    def workload_spec(self):
        return self._module

    def key(self):
        return f"synthetic|{self._spec}"

    def label(self):
        return "synthetic"

    def to_dict(self):
        return {"workload": self.workload, "spec": self._spec}


def test_prefilter_prefix_compile_is_a_traced_compiler_run():
    # The structural prefix goes through the one driver, so a live session
    # sees its stage spans (a hand-rolled stage loop emitted none).
    from repro import obs
    from repro.dse import DesignPoint

    obs.configure()
    try:
        assert check_point(DesignPoint.for_workload("atax@n=8")) is None
        spans = [
            e["name"]
            for e in obs.session().events()
            if e["type"] == "span" and e["cat"] == "stage"
        ]
    finally:
        obs.shutdown()
    assert spans[0] == "construct-dataflow"
    assert "parallelize" not in spans and "estimate" not in spans


def test_prefilter_rejects_spec_without_estimate():
    module, _ = cycle_module(2, 2)
    verdict = check_point(
        _FakePoint(module, "construct-dataflow,lower-structural,parallelize")
    )
    assert verdict is not None
    assert verdict["reason"] == "no-estimate"


def test_prefilter_rejects_statically_deadlocked_designs():
    # 'eliminate-multi-producers' is a no-op structural prefix here, so the
    # filter lints the module as-is.
    bad, _ = cycle_module(1, 1)
    verdict = check_point(_FakePoint(bad, "eliminate-multi-producers,estimate"))
    assert verdict is not None
    assert verdict["reason"] == "static-error"
    assert verdict["rule_counts"] == {"deadlock": 1}
    good, _ = cycle_module(2, 2)
    assert check_point(
        _FakePoint(good, "eliminate-multi-producers,estimate")
    ) is None


def test_prefilter_rejects_unparseable_spec():
    module, _ = cycle_module(2, 2)
    verdict = check_point(_FakePoint(module, "no-such-stage,estimate"))
    assert verdict is not None
    assert verdict["reason"] == "invalid-spec"


# ----------------------------------------------------------------------- CLIs
def test_analysis_cli_list_rules(capsys):
    from repro.analysis.__main__ import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in available_rules():
        assert rule in out


def test_analysis_cli_table_and_baseline(tmp_path, capsys):
    from repro.analysis.__main__ import main

    spec = (
        "construct-dataflow,lower-linalg,lower-structural,"
        "parallelize{factor=4},estimate"
    )
    baseline = tmp_path / "baseline.json"
    assert main([
        "--workload", "2mm", "--spec", spec, "--target", "zu3eg",
        "--write-baseline", str(baseline),
    ]) == 0
    out = capsys.readouterr().out
    assert "2mm" in out and "deadlock" in out
    # A matching baseline passes; a tightened one fails with status 1.
    assert main([
        "--workload", "2mm", "--spec", spec, "--target", "zu3eg",
        "--baseline", str(baseline),
    ]) == 0
    payload = json.loads(baseline.read_text())
    payload["counts"]["2mm"] = {}
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(payload))
    # Counts within the baseline still pass (2mm is clean) — force a hit by
    # lowering nothing; so also check the machinery on a synthetic count.
    from repro.analysis.__main__ import _new_hits

    assert _new_hits(
        {"counts": {"2mm": {"deadlock": 1}}}, {"counts": {}}
    ) == ["2mm: deadlock hit 1 time(s), baseline allows 0"]
    assert _new_hits(
        {"counts": {"2mm": {"deadlock": 1}}},
        {"counts": {"2mm": {"deadlock": 1}}},
    ) == []


def test_compiler_cli_lint_flag(tmp_path, capsys):
    from repro.compiler.__main__ import main

    spec = (
        "construct-dataflow,lower-linalg,lower-structural,"
        "parallelize{factor=4},estimate"
    )
    assert main([
        "--workload", "2mm", "--target", "zu3eg", "--spec", spec,
        "--lint", "--lint-fail-on", "error",
    ]) == 0
    out = capsys.readouterr().out
    assert "lint{fail-on=error}" in out
    with pytest.raises(SystemExit):
        main(["--workload", "2mm", "--lint-fail-on", "error"])


def test_compiler_cli_verify_ir_flag(capsys):
    from repro.compiler.__main__ import main

    spec = (
        "construct-dataflow,lower-linalg,lower-structural,"
        "parallelize{factor=4},estimate"
    )
    assert main([
        "--workload", "2mm", "--target", "zu3eg", "--spec", spec,
        "--verify-ir",
    ]) == 0


# ---------------------------------------------------------------------------
# Loop-level rules (dependence-engine backed)
# ---------------------------------------------------------------------------


def _lowered_kernel(build):
    """Build a KernelBuilder module and lower it to a scheduled design."""
    spec = "construct-dataflow,lower-linalg,lower-structural"
    return Compiler.from_spec(spec).run_stages(build()).module


def _recurrence_kernel():
    # Two nests so construct-dataflow builds a dispatch (one task each):
    # the recurrence nest plus a trivial consumer nest.
    from repro.frontend.cpp import KernelBuilder

    kb = KernelBuilder("rec")
    kb.add_input("B", (16,))
    kb.add_inout("A", (16,))
    kb.add_output("C", (16,))
    with kb.loop("i", 16) as i:
        kb.store("A", [i], kb.load("A", [i - 1]) + kb.load("B", [i]))
    with kb.loop("j", 16) as j:
        kb.store("C", [j], kb.load("A", [j]) * 2.0)
    return kb.finish()


def _schedule_loops(module):
    from repro.dialects.affine import AffineForOp
    from repro.dialects.dataflow import ScheduleOp

    loops = []
    for op in module.walk():
        if isinstance(op, ScheduleOp):
            loops.extend(l for l in op.walk() if isinstance(l, AffineForOp))
    return loops


def test_loop_carried_race_rule_flags_underclaimed_ii():
    module = _lowered_kernel(_recurrence_kernel)
    loop = _schedule_loops(module)[0]
    loop.set_pipeline(True, 1)  # rec-MII of the A[i-1] chain is 3
    report = analyze_module(module, only=["loop-carried-race"])
    assert len(report.errors) == 1
    finding = report.errors[0]
    assert finding.data["target_ii"] == 1
    assert finding.data["rec_mii"] == 3
    # Claiming the achievable II silences the rule.
    loop.set_pipeline(True, 3)
    assert not analyze_module(module, only=["loop-carried-race"]).diagnostics


def test_illegal_unroll_rule_flags_broken_distance():
    module = _lowered_kernel(_recurrence_kernel)
    loop = _schedule_loops(module)[0]
    loop.set_unroll_factor(4)  # carried distance is exactly 1
    report = analyze_module(module, only=["illegal-unroll"])
    assert len(report.errors) == 1
    assert report.errors[0].data["factor"] == 4
    assert report.errors[0].data["distance"] == 1
    loop.set_unroll_factor(1)
    assert not analyze_module(module, only=["illegal-unroll"]).diagnostics


def test_bank_conflict_rule_flags_underpartitioned_buffer():
    from repro.dialects.hls import ArrayPartition, PartitionKind, set_partition
    from repro.frontend.cpp import KernelBuilder
    from repro.transforms.array_partition import _resolve_through_nodes

    def build():
        kb = KernelBuilder("stride2")
        kb.add_input("A", (32,))
        kb.add_output("B", (16,))
        kb.add_output("C", (16,))
        with kb.loop("i", 16) as i:
            kb.store("B", [i], kb.load("A", [i * 2]) + 1.0)
        with kb.loop("j", 16) as j:
            kb.store("C", [j], kb.load("A", [j]) + 1.0)
        return kb.finish()

    module = _lowered_kernel(build)
    loop = _schedule_loops(module)[0]
    loop.set_unroll_factor(4)
    from repro.dialects.affine import AffineLoadOp

    load = next(op for op in module.walk() if isinstance(op, AffineLoadOp))
    buffer = _resolve_through_nodes(load.memref)
    # Factor 2 on a stride-2 unrolled-by-4 stream: every copy hits bank 0.
    set_partition(buffer, ArrayPartition([PartitionKind.CYCLIC], [2]))
    report = analyze_module(module, only=["bank-conflict"])
    warnings = report.by_severity("warning")
    assert warnings
    assert warnings[0].data["hits"] == 4
    # A wide-enough cyclic factor resolves it.
    set_partition(buffer, ArrayPartition([PartitionKind.CYCLIC], [8]))
    assert not analyze_module(module, only=["bank-conflict"]).diagnostics


def test_loop_rules_respect_suppression():
    from repro.dialects.dataflow import ScheduleOp

    module = _lowered_kernel(_recurrence_kernel)
    loop = _schedule_loops(module)[0]
    loop.set_unroll_factor(4)
    assert analyze_module(module, only=["illegal-unroll"]).errors
    schedule = next(
        op for op in module.walk() if isinstance(op, ScheduleOp)
    )
    schedule.set_attr(SUPPRESS_ATTR, ["illegal-unroll"])
    report = analyze_module(module, only=["illegal-unroll"])
    assert not report.diagnostics
    assert report.suppressed == 1
