"""Tests of the composable compiler front door (repro.compiler).

Covers the textual pipeline-spec parser/printer (round-trips, diagnostics
with token + offset, hash stability), the stage registry, the observer
hooks, the ``default_stages`` helper behind ablations and DSE knob points,
and the spec-expressed Figure-11 ablation baselines.
"""

import pytest

from repro import Compiler, default_stages
from repro.baselines import (
    ABLATION_MODES,
    ablation_pipeline_spec,
    run_ablation_mode,
    scalehls_pipeline_spec,
    vitis_pipeline_spec,
)
from repro.compiler import (
    DEFAULT_PIPELINE,
    CompilationStage,
    DiagnosticsObserver,
    PipelineObserver,
    PipelineSpec,
    PipelineSpecError,
    SnapshotObserver,
    StageSpec,
    available_stages,
    get_stage_class,
    parse_pipeline,
    register_stage,
    stage_registry,
)
from repro.frontend.cpp import build_listing1
from repro.ir import verify
from repro.workloads import as_module


# ---------------------------------------------------------------- parsing
class TestSpecParsing:
    def test_parse_print_roundtrip(self):
        text = (
            "construct-dataflow,fuse-tasks{patterns=elementwise,init},"
            "lower-structural,balance,parallelize{ia=1,ca=1,target-ii=2}"
        )
        spec = parse_pipeline(text)
        assert spec.print() == text
        assert parse_pipeline(spec.print()) == spec

    def test_whitespace_is_insignificant(self):
        a = parse_pipeline("construct-dataflow, balance { budget = 64 } , estimate")
        b = parse_pipeline("construct-dataflow,balance{budget=64},estimate")
        assert a == b
        assert a.print() == b.print()

    def test_list_option_continuation(self):
        spec = parse_pipeline("fuse-tasks{patterns=elementwise,init}")
        assert spec.stages[0].options == {"patterns": ["elementwise", "init"]}

    def test_scalar_then_list_options(self):
        spec = parse_pipeline("fuse-tasks{patterns=a,b},parallelize{factor=8,ia=0}")
        assert spec.stages[0].options == {"patterns": ["a", "b"]}
        assert spec.stages[1].options == {"factor": ["8"], "ia": ["0"]}

    def test_empty_spec_rejected(self):
        with pytest.raises(PipelineSpecError, match="empty pipeline spec"):
            parse_pipeline("   ")

    def test_trailing_comma_rejected(self):
        with pytest.raises(PipelineSpecError, match="trailing ','"):
            parse_pipeline("estimate,")

    def test_unterminated_brace_names_stage_and_offset(self):
        with pytest.raises(PipelineSpecError, match=r"'balance'.*offset 7"):
            parse_pipeline("balance{budget=64")

    def test_bare_value_before_any_option(self):
        with pytest.raises(PipelineSpecError, match=r"bare value 'oops'"):
            parse_pipeline("fuse-tasks{oops}")

    def test_duplicate_option_rejected(self):
        with pytest.raises(PipelineSpecError, match="duplicate option 'size'"):
            parse_pipeline("tile{size=4,size=8}")

    def test_parse_error_offsets_point_at_the_bad_token(self):
        text = "construct-dataflow,tile{size=x}"
        with pytest.raises(PipelineSpecError) as exc:
            Compiler.from_spec(text)
        assert "expects an integer" in str(exc.value)
        assert exc.value.offset == text.index("size=")


# ------------------------------------------------------- registry + stages
class TestStageRegistry:
    def test_figure3_stages_registered(self):
        assert set(available_stages()) >= {
            "construct-dataflow",
            "fuse-tasks",
            "lower-linalg",
            "lower-structural",
            "eliminate-multi-producers",
            "balance",
            "tile",
            "parallelize",
            "estimate",
        }

    def test_unknown_stage_error_names_token_offset_and_alternatives(self):
        text = "construct-dataflow,fuze-tasks,estimate"
        with pytest.raises(PipelineSpecError) as exc:
            Compiler.from_spec(text)
        message = str(exc.value)
        assert "fuze-tasks" in message and "known stages" in message
        assert "fuse-tasks" in message
        assert exc.value.offset == text.index("fuze-tasks")

    def test_unknown_option_error_names_token_offset_and_alternatives(self):
        text = "parallelize{factr=8}"
        with pytest.raises(PipelineSpecError) as exc:
            Compiler.from_spec(text)
        message = str(exc.value)
        assert "factr" in message and "factor" in message
        assert exc.value.offset == text.index("factr")

    def test_bad_bool_token(self):
        with pytest.raises(PipelineSpecError, match="boolean"):
            Compiler.from_spec("parallelize{ia=maybe}")

    def test_unknown_fusion_pattern_in_spec(self):
        compiler = Compiler.from_spec("construct-dataflow,fuse-tasks{patterns=bogus}")
        with pytest.raises(PipelineSpecError, match="bogus.*known patterns"):
            compiler.run(build_listing1())

    def test_python_constructor_validates_options(self):
        cls = get_stage_class("parallelize")
        stage = cls(factor=8, ia=False)
        assert stage.factor == 8 and stage.ia is False and stage.ca is True
        with pytest.raises(TypeError, match="no option"):
            cls(factorr=8)

    def test_custom_stage_registration_roundtrip(self):
        @register_stage
        class NopStage(CompilationStage):
            name = "test-nop"

            def run(self, state):
                state.emit(self.name, "did nothing")

        try:
            assert "test-nop" in available_stages()
            spec = parse_pipeline("test-nop,construct-dataflow,lower-structural,estimate")
            result = Compiler.from_spec(spec, platform="zu3eg").run(build_listing1())
            assert result.stage_timings[0][0] == "test-nop"
        finally:
            stage_registry()  # sanity: registry copy, not the live dict
            from repro.compiler import stages as stages_module

            stages_module._REGISTRY.pop("test-nop", None)

    def test_registry_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_stage
            class Impostor(CompilationStage):
                name = "balance"

                def run(self, state):
                    pass


# ------------------------------------------------------------ canonical
class TestCanonicalSpecs:
    def test_default_options_print_default_pipeline(self):
        assert Compiler(default_stages()).spec_text() == DEFAULT_PIPELINE

    def test_canonical_print_drops_defaults(self):
        compiler = Compiler.from_spec("parallelize{factor=32,ia=1,ca=1,target-ii=1},estimate{dataflow=1}")
        assert compiler.spec_text() == "parallelize,estimate"

    def test_spec_hash_stable_across_spellings(self):
        a = Compiler.from_spec("parallelize{factor=32,ia=true},estimate")
        b = Compiler.from_spec(" parallelize , estimate ")
        assert a.spec_hash() == b.spec_hash()
        c = Compiler.from_spec("parallelize{factor=16},estimate")
        assert c.spec_hash() != a.spec_hash()

    def test_options_spec_roundtrip(self):
        compiler = Compiler(
            default_stages(
                drop=["fuse-tasks", "tile"],
                parallelize={"factor": 64, "ia": False, "target_ii": 2},
                estimate={"dataflow": False},
            ),
            platform="zu3eg",
        )
        text = (
            "construct-dataflow,lower-linalg,lower-structural,"
            "eliminate-multi-producers,balance,"
            "parallelize{factor=64,ia=0,target-ii=2},estimate{dataflow=0}"
        )
        assert compiler.spec_text() == text
        # The typed-stage path and the text path are the same pipeline.
        assert Compiler.from_spec(text).spec_hash() == compiler.spec_hash()

    def test_default_stages_rejects_unknown_names(self):
        with pytest.raises(PipelineSpecError, match="'lint' not in the default"):
            default_stages(drop=["lint"])
        with pytest.raises(PipelineSpecError, match="'tiel'"):
            default_stages(tiel={"size": 4})
        with pytest.raises(TypeError, match="no option"):
            default_stages(tile={"sz": 4})

    def test_stagespec_print(self):
        stage = StageSpec("tile", {"size": ["8"]})
        assert stage.print() == "tile{size=8}"
        assert PipelineSpec([stage]).print() == "tile{size=8}"


# ------------------------------------------------------------ compilation
class TestLegacyEquivalence:
    """``Compiler.run`` contracts (class name kept so test ids stay stable)."""

    def test_custom_fusion_pattern_instances_survive_compile_in_a_stage_subclass(self):
        from repro.compiler.stages import FuseTasksStage
        from repro.hida import ElementwiseFusionPattern

        calls = []

        class TracingPattern(ElementwiseFusionPattern):
            name = "tracing-fusion"

            def match(self, task):
                calls.append(task)
                return super().match(task)

        class TracingFuseStage(FuseTasksStage):
            def resolved_patterns(self):
                return [TracingPattern()]

        stages = default_stages()
        stages[1] = TracingFuseStage()
        result = Compiler(stages, platform="zu3eg").run(as_module("lenet"))
        assert calls, "custom pattern instance was never consulted"
        assert result.throughput > 0

    def test_compile_result_options_reflect_spec(self):
        result = Compiler.from_spec(
            "construct-dataflow,lower-structural,parallelize{factor=8,ca=0},estimate",
            platform="zu3eg",
        ).run(build_listing1())
        assert result.options.platform == "zu3eg"
        assert result.options.verify is False
        assert result.platform.name == "zu3eg"

    def test_missing_estimate_stage_is_a_helpful_error(self):
        compiler = Compiler.from_spec("construct-dataflow,lower-structural")
        with pytest.raises(PipelineSpecError, match="estimate"):
            compiler.run(build_listing1())

    def test_run_stages_runs_a_pipeline_without_estimate(self):
        from repro import obs
        from repro.dialects.dataflow import ScheduleOp

        stages = ["construct-dataflow", "lower-structural"]
        compiler = Compiler.from_spec(",".join(stages), verify_each=True)
        obs.configure()
        try:
            state = compiler.run_stages(build_listing1())
            spans = [
                e["name"]
                for e in obs.session().events()
                if e["type"] == "span" and e["cat"] == "stage"
            ]
        finally:
            obs.shutdown()
        assert state.estimate is None
        assert state.schedules == [
            op for op in state.module.walk() if isinstance(op, ScheduleOp)
        ]
        assert state.schedules
        assert [name for name, _ in state.stage_timings] == stages
        # One span per stage, each followed by its verify_each pass.
        assert spans == ["construct-dataflow", "verify", "lower-structural", "verify"]
        # run() is run_stages() plus the estimate check.
        with pytest.raises(PipelineSpecError, match="estimate"):
            compiler.run(build_listing1())

    def test_verify_each_spec_run(self):
        result = Compiler.from_spec(
            DEFAULT_PIPELINE, platform="zu3eg", verify_each=True
        ).run(build_listing1())
        assert verify(result.module) == []


# -------------------------------------------------------------- observers
class TestObservers:
    def test_timing_observer_sees_every_stage_in_order(self):
        seen = []

        class Recorder(PipelineObserver):
            def on_stage_end(self, stage, state, seconds):
                seen.append((stage.name, seconds))

        result = Compiler.from_spec(
            DEFAULT_PIPELINE, platform="zu3eg", observers=[Recorder()]
        ).run(build_listing1())
        names = [name for name, _ in result.stage_timings]
        assert names == DEFAULT_PIPELINE.split(",")
        assert all(seconds >= 0 for _, seconds in result.stage_timings)
        # Observers are handed the very seconds the result records.
        assert seen == result.stage_timings

    def test_snapshot_observer_captures_ir_per_stage(self):
        snapshots = SnapshotObserver(["construct-dataflow", "lower-structural"])
        Compiler.from_spec(
            DEFAULT_PIPELINE, platform="zu3eg", observers=[snapshots]
        ).run(build_listing1())
        stages = [stage for stage, _ in snapshots.snapshots]
        assert stages == ["construct-dataflow", "lower-structural"]
        construct_ir, structural_ir = (text for _, text in snapshots.snapshots)
        assert "hida.task" in construct_ir
        assert "hida.schedule" in structural_ir

    def test_diagnostics_observer_receives_structured_diagnostics(self):
        diagnostics = DiagnosticsObserver()
        result = Compiler.from_spec(
            DEFAULT_PIPELINE, platform="zu3eg", observers=[diagnostics]
        ).run(build_listing1())
        assert diagnostics.diagnostics
        stages_seen = {d.stage for d in diagnostics.diagnostics}
        assert "construct-dataflow" in stages_seen
        first = diagnostics.diagnostics[0]
        assert first.severity in ("note", "warning", "error")
        assert first.data.get("tasks", 0) >= 1
        # The same diagnostics are available on the run result path too.
        assert result.estimate is not None


# -------------------------------------------------------------- ablations
class TestAblationSpecs:
    def test_every_mode_is_a_roundtrippable_printed_spec(self):
        for mode in ABLATION_MODES:
            text = ablation_pipeline_spec(mode, 32, tile_size=16)
            parsed = parse_pipeline(text)
            assert parse_pipeline(parsed.print()) == parsed
            # and it builds + canonicalizes through the registry
            compiler = Compiler.from_spec(text)
            assert parse_pipeline(compiler.spec_text()).print() == compiler.spec_text()

    def test_modes_differ_only_in_parallelize_stage(self):
        specs = {
            mode: parse_pipeline(ablation_pipeline_spec(mode, 32)) for mode in ABLATION_MODES
        }
        for mode, spec in specs.items():
            names = [stage.name for stage in spec]
            assert names == [s.name for s in specs["ia+ca"].stages]
            (parallelize,) = [s for s in spec if s.name == "parallelize"]
            ia, ca = ABLATION_MODES[mode]
            assert parallelize.options["ia"] == [str(int(ia))]
            assert parallelize.options["ca"] == [str(int(ca))]

    def test_run_ablation_mode_reports_its_spec(self):
        outcome = run_ablation_mode(
            build_listing1(), "ia", 16, platform="zu3eg", tile_size=0
        )
        assert outcome.pipeline_spec
        assert "ca=0" in outcome.pipeline_spec
        assert outcome.summary()["pipeline_spec"] == outcome.pipeline_spec

    def test_unknown_mode_raises_keyerror(self):
        with pytest.raises(KeyError, match="bogus"):
            ablation_pipeline_spec("bogus", 8)

    def test_printed_specs_are_pinned(self):
        # Literals computed at the commit before the option bag was deleted:
        # these strings feed AblationOutcome.pipeline_spec and QoR-cache keys.
        template = (
            "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
            "eliminate-multi-producers,balance,tile,parallelize{ia=%d,ca=%d},estimate"
        )
        for mode, (ia, ca) in ABLATION_MODES.items():
            assert ablation_pipeline_spec(mode, 32) == template % (ia, ca)


    def test_baseline_specs_are_pinned(self):
        # HIDA vs ScaleHLS vs Vitis is a diff of three printed specs.
        scalehls = (
            "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
            "parallelize{factor=32,ia=0,ca=0},estimate"
        )
        assert scalehls_pipeline_spec(32) == scalehls
        assert scalehls_pipeline_spec(32, enable_dataflow=False) == (
            scalehls + "{dataflow=0}"
        )
        assert vitis_pipeline_spec() == (
            "lower-linalg,pipeline-innermost,estimate{dataflow=0}"
        )
        for text in (
            scalehls_pipeline_spec(32),
            scalehls_pipeline_spec(32, enable_dataflow=False),
            vitis_pipeline_spec(),
        ):
            assert parse_pipeline(text).print() == text
            Compiler.from_spec(text)  # every stage and option is registered


# ------------------------------------------------------------------- CLI
class TestCompilerCli:
    def test_print_default_pipeline(self, capsys):
        from repro.compiler.__main__ import main

        assert main(["--print-default-pipeline"]) == 0
        assert capsys.readouterr().out.strip() == DEFAULT_PIPELINE

    def test_list_stages(self, capsys):
        from repro.compiler.__main__ import main

        assert main(["--list-stages"]) == 0
        out = capsys.readouterr().out
        assert "parallelize" in out and "target-ii" in out

    def test_compile_from_spec(self, capsys, tmp_path):
        from repro.compiler.__main__ import main

        json_path = tmp_path / "out.json"
        code = main(
            [
                "--workload",
                "kernel:atax",
                "--platform",
                "zu3eg",
                "--spec",
                "construct-dataflow,lower-structural,parallelize{factor=8},estimate",
                "--timings",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "per-stage timings" in out
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert payload["pipeline_spec"].startswith("construct-dataflow")
        assert list(payload["stage_seconds"]) == sorted(
            ["construct-dataflow", "lower-structural", "parallelize", "estimate"]
        )
        assert payload["summary"]["throughput"] > 0

    def test_bad_spec_exits_2(self, capsys):
        from repro.compiler.__main__ import main

        with pytest.raises(SystemExit) as exit_info:  # a usage error since PR 18
            main(["--workload", "kernel:atax", "--spec", "nope"])
        assert exit_info.value.code == 2
        assert "known stages" in capsys.readouterr().err
