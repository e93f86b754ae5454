"""The shared vocabulary of the ``python -m repro.*`` front doors.

Pinned here:

* each CLI's option-string set, literally, so flag drift is a reviewed diff;
* ``repro._cli`` resolves shared flags where they are parsed;
* every bad value of a shared flag is a usage error (exit 2, one line, no
  traceback) raised before anything compiles, on all four compile CLIs;
* both zoo sweeps refuse neither and both of ``--workload`` and
  ``--all-workloads`` with the same usage error;
* ``python -m repro.compiler --print-ir STAGE`` refuses a STAGE its run's
  pipeline (with the stages ``--validate`` and ``--lint`` add) lacks;
* a model spec that reaches ``estimate`` or ``lower-structural`` without
  ``lower-linalg`` is one error line and exit 2;
* ``python -m repro.compiler --ir-cache --cache-stats --json``'s counter
  lines, summary and stage keys on a cold and a warm run;
* ``python -m repro.compiler --verify`` and ``--validate`` insert their
  check stage at every boundary once, the frontend's included, and a
  workload builder's ``ValueError`` is one error line and exit 2;
* ``python -m repro.analysis.tv`` imports the library exactly once, so the
  sweep catches the ``validate`` stage's own exception class.
"""

import argparse
import json
import os
import runpy
import subprocess
import sys

import pytest

from repro import _cli, obs
from repro.analysis.__main__ import _build_parser as analysis_parser
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.tv.__main__ import _build_parser as tv_parser
from repro.analysis.tv.__main__ import _shrunk
from repro.analysis.tv.__main__ import main as tv_main
from repro.compiler import DEFAULT_PIPELINE
from repro.compiler import stages as stages_module
from repro.compiler.__main__ import _build_parser as compiler_parser
from repro.compiler.__main__ import main as compiler_main
from repro.compiler.stages import CompilationStage, register_stage
from repro.dialects.affine import AffineStoreOp
from repro.dse.__main__ import _build_parser as dse_parser
from repro.dse.__main__ import main as dse_main
from repro.ir import FuncOp
from repro.obs.__main__ import _build_parser as obs_parser
from repro.workloads import Workload, get_workload, iter_workloads, register_workload
from repro.workloads.registry import _REGISTRY

_OBS_FLAGS = {"--trace", "--trace-out", "--metrics-json"}

OPTION_STRINGS = {
    compiler_parser: _OBS_FLAGS | {
        "-h", "--help", "--print-default-pipeline", "--list-stages",
        "--list-workloads", "--list-targets", "--list-fidelities", "--spec",
        "--workload", "--target", "--platform", "--fidelity", "--verify",
        "--verify-ir", "--lint", "--lint-fail-on", "--validate",
        "--validate-tolerance", "--timings", "--print-ir", "--ir-cache",
        "--ir-cache-dir", "--cache-stats", "--json",
    },
    dse_parser: _OBS_FLAGS | {
        "-h", "--help", "--space", "--suite", "--workload", "--list-workloads",
        "--dry-run", "--target", "--platform", "--workers", "--sample", "--seed",
        "--strategy", "--budget", "--fidelity", "--promote-top",
        "--list-fidelities", "--list-strategies", "--objectives", "--cache-dir",
        "--no-cache", "--ir-cache", "--ir-cache-dir", "--prefilter",
        "--validate-frontier", "--resume", "--pipeline-spec", "--clear-cache",
        "--json", "--top",
    },
    analysis_parser: {
        "-h", "--help", "--workload", "--all-workloads", "--target",
        "--platform", "--spec", "--rules", "--list-rules", "--baseline",
        "--write-baseline", "--json", "--verbose", "--annotate",
    },
    tv_parser: {
        "-h", "--help", "--workload", "--all-workloads", "--spec", "--ablations",
        "--target", "--platform", "--seed", "--fuzz", "--count", "--annotate",
        "--json", "--verbose",
    },
    obs_parser: {
        "-h", "--help", "--top", "--counters", "--export-trace", "--validate",
    },
}


@pytest.mark.parametrize(
    "build_parser", OPTION_STRINGS, ids=lambda build: build.__module__
)
def test_option_strings_are_pinned(build_parser):
    declared = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }
    assert declared == OPTION_STRINGS[build_parser]


# ------------------------------------------------------------------- _cli
def test_workload_flag_yields_handles_single_and_repeatable():
    single = argparse.ArgumentParser()
    _cli.add_workload(single)
    assert single.parse_args([]).workload is None
    handle = single.parse_args(["--workload", "2mm@n=16"]).workload
    assert isinstance(handle, Workload) and handle.label() == "2mm@n=16"
    many = argparse.ArgumentParser()
    _cli.add_workload(many, repeatable=True)
    assert many.parse_args([]).workloads is None
    handles = many.parse_args(["--workload", "atax", "--workload", "lenet"]).workloads
    assert [type(h) for h in handles] == [Workload, Workload]
    assert [h.name for h in handles] == ["atax", "lenet"]


@pytest.mark.parametrize("flag", ["--target", "--platform"])
def test_both_target_spellings_resolve_aliases_at_parse_time(flag):
    single = argparse.ArgumentParser()
    _cli.add_target(single, default="vu9p-slr")
    assert single.parse_args([]).platform == "vu9p-slr"
    assert single.parse_args([flag, "vu9p"]).platform == "vu9p-slr"
    many = argparse.ArgumentParser()
    _cli.add_target(many, default=None, repeatable=True)
    assert many.parse_args([flag, "VU9P", flag, "zu3"]).platforms == [
        "vu9p-slr",
        "zu3eg",
    ]


@pytest.mark.parametrize("main", [compiler_main, dse_main], ids=["compiler", "dse"])
def test_ir_cache_dir_needs_ir_cache_on_both_compile_clis(main, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--workload", "atax", "--ir-cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: --ir-cache-dir requires --ir-cache\n"
    )



@pytest.mark.parametrize(
    "extra, stages",
    [
        ([], "lower-linalg, estimate"),
        (["--validate", "--lint"], "validate, lower-linalg, estimate, lint"),
    ],
    ids=["spec", "spec-validate-lint"],
)
def test_print_ir_stage_must_be_in_the_run(extra, stages, capsys):
    with pytest.raises(SystemExit) as exit_info:
        compiler_main([
            "--workload", "atax", "--spec", "lower-linalg,estimate",
            "--print-ir", "tile", *extra,
        ])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: --print-ir: stage 'tile' is not in this run's pipeline; "
        f"its stages: {stages}\n"
    )

@pytest.mark.parametrize(
    "spec, stage, op",
    [
        ("estimate", "estimate", "linalg.fill"),
        (
            "construct-dataflow,lower-structural,parallelize,estimate",
            "lower-structural",
            "linalg.conv2d",
        ),
    ],
    ids=["estimate", "lower-structural"],
)
def test_a_model_spec_without_lower_linalg_is_refused(spec, stage, op, capsys):
    assert compiler_main(["--workload", "lenet", "--target", "zu3eg", "--spec", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: stage {stage!r} reached the unlowered op {op!r}: "
        f"the pipeline lacks 'lower-linalg' before {stage!r}\n"
    )


#: ``--cache-stats`` counter lines of a cold and a warm default-pipeline run.
_CACHE_STATS_LINES = (
    "prefix_hits", "stages_skipped", "stages_run", "frontend_traces",
    "snapshots_stored", "snapshots_refused",
)
_COLD_STATS = (0, 0, 9, 1, 7, 0)
_WARM_STATS = (1, 7, 2, 0, 0, 0)
_ATAX_ZU3EG_SUMMARY = {
    "bram": 0.0, "dsp": 200.0, "ff": 6472.456942879424, "interval_cycles": 486.0,
    "latency_cycles": 972.0, "lut": 21640.8396450419,
    "max_utilization": 0.5555555555555556, "misalignments": 0.0, "num_nodes": 2,
    "throughput": 411522.633744856,
}


def test_compiler_cli_cache_stats_and_json_cold_then_warm(tmp_path, capsys):
    cache_dir = tmp_path / "ir"
    reports = []
    for run, expected in (("cold", _COLD_STATS), ("warm", _WARM_STATS)):
        out = tmp_path / f"{run}.json"
        assert compiler_main([
            "--workload", "atax", "--target", "zu3eg", "--ir-cache",
            "--ir-cache-dir", str(cache_dir), "--cache-stats", "--json", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        block = stdout.split("\nir-cache stats:\n", 1)[1].splitlines()[:6]
        assert block == [
            f"  {key}: {value}" for key, value in zip(_CACHE_STATS_LINES, expected)
        ], run
        reports.append(json.loads(out.read_text()))
    cold, warm = reports
    for report in reports:
        summary = dict(report["summary"])
        assert summary.pop("compile_seconds") > 0
        assert summary == _ATAX_ZU3EG_SUMMARY
    assert sorted(cold["stage_seconds"]) == sorted(DEFAULT_PIPELINE.split(","))
    assert sorted(warm["stage_seconds"]) == ["estimate", "parallelize"]
    assert cold["estimate"] == warm["estimate"]


def test_github_annotation_formats():
    assert _cli.github_annotation("error", "tv", "m") == "::error title=tv::m"
    assert (
        _cli.github_annotation("notice", "rule", "m", file="a.mlir", line=3)
        == "::notice file=a.mlir,line=3,title=rule::m"
    )


# ------------------------------------------------------ usage-error matrix
_MAINS = {
    "repro.compiler": (compiler_main, "--spec"),
    "repro.dse": (dse_main, "--pipeline-spec"),
    "repro.analysis": (analysis_main, "--spec"),
    "repro.analysis.tv": (tv_main, "--spec"),
}

#: kind -> (argv given the CLI's spec flag, flag named on stderr, intact text)
_BAD_VALUES = {
    "unknown-workload": (
        lambda spec: ["--workload", "resnet8"], "--workload",
        "did you mean 'resnet18'? (available: ",
    ),
    "unknown-target": (
        lambda spec: ["--workload", "atax", "--target", "zu3egg"], "--target",
        "did you mean 'zu3eg'? (available: pynq-z2, zu3eg, vu9p-slr, pynq, ",
    ),
    "malformed-spec": (
        lambda spec: ["--workload", "atax", spec, "construct-dataflow,nope"],
        None, "unknown stage 'nope'; known stages: construct-dataflow, ",
    ),
    "validate-tolerance-not-a-number": (
        lambda spec: ["--workload", "atax", spec, "validate{tolerance=abc},estimate"],
        None, "option 'tolerance' of stage 'validate' expects a finite number >= 0, "
        "got 'abc'",
    ),
    "validate-negative-max-ops": (
        lambda spec: ["--workload", "atax", spec, "validate{max-ops=-5},estimate"],
        None, "option 'max-ops' of stage 'validate' expects an integer >= 0, got -5",
    ),
    "parallelize-zero-factor": (
        lambda spec: ["--workload", "atax", spec, "parallelize{factor=0},estimate"],
        None, "option 'factor' of stage 'parallelize' expects an integer >= 1, got 0",
    ),
    "parallelize-negative-factor": (
        lambda spec: ["--workload", "atax", spec, "parallelize{factor=-4},estimate"],
        None, "option 'factor' of stage 'parallelize' expects an integer >= 1, got -4",
    ),
    "parallelize-zero-target-ii": (
        lambda spec: ["--workload", "atax", spec, "parallelize{target-ii=0},estimate"],
        None, "option 'target-ii' of stage 'parallelize' expects an integer >= 1, got 0",
    ),
    "parallelize-negative-target-ii": (
        lambda spec: ["--workload", "atax", spec, "parallelize{target-ii=-3},estimate"],
        None, "option 'target-ii' of stage 'parallelize' expects an integer >= 1, got -3",
    ),
    "json-into-missing-directory": (
        lambda spec: ["--workload", "atax", "--json", "/no/such/dir/x.json"],
        "--json", "directory '/no/such/dir' does not exist",
    ),
}


@pytest.mark.parametrize("kind", _BAD_VALUES)
@pytest.mark.parametrize("cli", _MAINS)
def test_bad_shared_flag_is_a_usage_error_before_any_compile(cli, kind, capsys):
    main, spec_flag = _MAINS[cli]
    argv, flag, text = _BAD_VALUES[kind]
    session = obs.configure()
    try:
        with pytest.raises(SystemExit) as exit_info:
            main(argv(spec_flag))
        compiles = [
            event
            for event in session.events()
            if event.get("type") == "span" and event.get("name") == "compile"
        ]
    finally:
        obs.shutdown()
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert f"error: argument {flag or spec_flag}" in err
    assert text in err
    assert "Traceback" not in err
    assert compiles == []


@pytest.mark.parametrize("value", ["abc", "inf", "nan", "-1"])
def test_validate_tolerance_is_a_finite_non_negative_number(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        compiler_main(
            ["--workload", "atax", "--validate", "--validate-tolerance", value]
        )
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.endswith(
        "error: argument --validate-tolerance: expects a finite number >= 0, "
        f"got {value!r}\n"
    )


#: The two zoo sweeps read --workload and --all-workloads the same way:
#: passing neither or both is one usage error.
_SWEEP_MAINS = {"repro.analysis": analysis_main, "repro.analysis.tv": tv_main}


@pytest.mark.parametrize(
    "argv", [[], ["--workload", "atax", "--all-workloads"]], ids=["neither", "both"]
)
@pytest.mark.parametrize("cli", _SWEEP_MAINS)
def test_a_sweep_takes_its_workloads_or_all_of_them(cli, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _SWEEP_MAINS[cli](argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: pass --workload NAME (repeatable) or --all-workloads, not both\n"
    )


@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-json"])
def test_obs_output_paths_are_checked_at_parse_time(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        compiler_main(["--workload", "atax", flag, "/no/such/dir/t.json"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: directory '/no/such/dir'" in capsys.readouterr().err


# ------------------------------------------------- python -m repro.analysis.tv
def test_tv_module_runs_without_a_double_import_warning():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.analysis.tv",
         "--workload", "2mm"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "0 failure(s)" in done.stdout


def test_tv_dash_m_sweep_catches_the_validate_stage_error(
    tmp_path, capsys, monkeypatch
):
    @register_stage
    class DropLastStore(CompilationStage):
        name = "test-drop-last-store"

        def run(self, state):
            stores = [
                op for op in state.module.walk() if isinstance(op, AffineStoreOp)
            ]
            stores[-1].erase()

    out = tmp_path / "out.json"
    spec = (
        "construct-dataflow,lower-linalg,lower-structural,"
        "test-drop-last-store,parallelize,estimate"
    )
    monkeypatch.setattr(
        sys, "argv",
        ["tv", "--workload", "atax", "--spec", spec, "--json", str(out), "--annotate"],
    )
    # What ``python -m`` finds: the package imported, its __main__ not yet.
    monkeypatch.delitem(sys.modules, "repro.analysis.tv.__main__", raising=False)
    try:
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("repro.analysis.tv", run_name="__main__")
    finally:
        stages_module._REGISTRY.pop("test-drop-last-store", None)
    assert exit_info.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL atax@n=8")] != []
    assert "'mismatch': 1" in "".join(lines)
    annotations = [line for line in lines if line.startswith("::")]
    assert len(annotations) == 1
    assert annotations[0].startswith("::error title=translation-validation::atax@n=8")
    assert json.loads(out.read_text())["failures"] == 1


@pytest.mark.parametrize(
    "workload, validated",
    [
        ("2mm@n=4", "2mm@n=4"),
        ("jacobi-2d@tsteps=3", "jacobi-2d@n=8,tsteps=3"),
        ("2mm", "2mm@n=8"),
    ],
)
def test_tv_sweep_shrinks_only_the_sizes_an_id_leaves_at_default(
    workload, validated, capsys
):
    # Regression: every kernel ran at n=8, tsteps=2 whatever its id stated.
    assert tv_main(["--workload", workload, "--verbose"]) == 0
    assert capsys.readouterr().out.split()[1] == validated


def test_tv_all_workloads_sweep_shrinks_every_kernel():
    kernels = list(iter_workloads(kind="kernel"))
    expected = [
        kernel.at(**{k: v for k, v in {"n": 8, "tsteps": 2}.items() if k in kernel.params})
        for kernel in kernels
    ]
    assert _shrunk(kernels) == expected


def test_fuzz_count_must_be_non_negative(capsys):
    with pytest.raises(SystemExit) as exit_info:
        tv_main(["--fuzz", "--count", "-3"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --count: must be non-negative (got -3)\n"
    )


# ------------------------------------------- python -m repro.compiler checks
_SMALL_SPEC = "construct-dataflow,lower-linalg,lower-structural,estimate"


def _pipeline_line(argv, capsys):
    assert compiler_main(["--workload", "atax@n=8", "--target", "zu3eg", *argv]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv, pipeline",
    [
        (
            ["--validate", "--validate-tolerance", "1e-9", "--spec", _SMALL_SPEC],
            "validate{tolerance=1e-09,after=frontend},construct-dataflow,"
            "validate{tolerance=1e-09,after=construct-dataflow},lower-linalg,"
            "validate{tolerance=1e-09,after=lower-linalg},lower-structural,"
            "validate{tolerance=1e-09,after=lower-structural},estimate,"
            "validate{tolerance=1e-09,after=estimate}",
        ),
        (
            ["--validate", "--lint", "--spec",
             "validate,lower-linalg,tile{size=4},validate{seed=2},estimate"],
            "validate,lower-linalg,validate{after=lower-linalg},tile{size=4},"
            "validate{seed=2},estimate,validate{after=estimate},lint",
        ),
    ],
    ids=["tolerance", "existing-validates-and-lint"],
)
def test_validate_prints_the_pinned_pipeline(argv, pipeline, capsys):
    assert _pipeline_line(argv, capsys)[0] == f"pipeline: {pipeline}"


def test_verify_and_validate_check_every_boundary_once(capsys):
    lines = _pipeline_line(
        ["--verify", "--validate", "--timings", "--spec", _SMALL_SPEC], capsys
    )
    assert lines[0] == (
        "pipeline: verify{after=frontend},validate{after=frontend},"
        "construct-dataflow,verify{after=construct-dataflow},"
        "validate{after=construct-dataflow},lower-linalg,verify{after=lower-linalg},"
        "validate{after=lower-linalg},lower-structural,verify{after=lower-structural},"
        "validate{after=lower-structural},estimate,verify{after=estimate},"
        "validate{after=estimate}"
    )
    validated = [line.split(": ")[1] for line in lines if "[note] validate: " in line]
    assert validated == ["frontend", *_SMALL_SPEC.split(",")]
    timings = lines[lines.index("per-stage timings:") + 1 :]
    ran = [line.split()[0] for line in timings[: timings.index("")]]
    assert (len(ran), ran.count("verify"), ran.count("validate")) == (14, 5, 5)


def test_verify_rejects_a_builder_s_invalid_ir_at_the_frontend(capsys):
    @register_workload("test-duplicate-symbol", kind="kernel")
    def build_duplicate_symbol():
        module = get_workload("atax@n=8").build_module()
        module.append(FuncOp.create(module.functions[0].sym_name))
        return module

    try:
        status = compiler_main(["--workload", "test-duplicate-symbol", "--verify"])
    finally:
        _REGISTRY.pop("test-duplicate-symbol", None)
    err = capsys.readouterr().err.splitlines()
    assert status == 3
    assert err[0].startswith("  [error] verify: ")
    assert "duplicate function symbols" in err[0]
    assert err[-1].startswith(
        "error: IR verification failed after stage 'frontend': 1 issue(s); first: "
    )


def test_an_unknown_fusion_pattern_is_a_usage_error_before_the_header(capsys):
    spec = "construct-dataflow,fuse-tasks{patterns=bogus},estimate"
    with pytest.raises(SystemExit) as exit_info:
        compiler_main(["--workload", "atax", "--spec", spec])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --spec: unknown fusion pattern(s) 'bogus' in stage "
        "'fuse-tasks'; known patterns: elementwise, init\n"
    )


def test_a_builder_value_error_is_one_line_naming_the_workload(capsys):
    assert compiler_main(["--workload", "atax@n=-4"]) == 2
    assert capsys.readouterr().err == (
        "error: workload 'atax@n=-4': shape dimensions must be non-negative, "
        "got (-4, -4)\n"
    )


def test_a_second_lower_structural_prints_the_same_design(capsys):
    spec = "construct-dataflow,lower-linalg,lower-structural,{}estimate"
    outputs = []
    for extra in ("", "lower-structural,"):
        argv = ["--workload", "lenet", "--target", "zu3eg", "--spec", spec.format(extra)]
        assert compiler_main(argv) == 0
        outputs.append([
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("  throughput:", "  num_nodes:"))
        ])
    assert outputs[0] == ["  throughput: 92.59", "  num_nodes: 10"]
    assert outputs[1] == outputs[0]
