"""The shared vocabulary of the ``python -m repro.*`` front doors.

Pinned here:

* each CLI's option-string set, literally, so flag drift is a reviewed diff;
* ``repro._cli`` resolves shared flags where they are parsed;
* every bad value of a shared flag is a usage error (exit 2, one line, no
  traceback) raised before anything compiles, on all four compile CLIs;
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
from repro.analysis.tv.__main__ import main as tv_main
from repro.compiler import stages as stages_module
from repro.compiler.__main__ import _build_parser as compiler_parser
from repro.compiler.__main__ import main as compiler_main
from repro.compiler.stages import CompilationStage, register_stage
from repro.dialects.affine import AffineStoreOp
from repro.dse.__main__ import _build_parser as dse_parser
from repro.dse.__main__ import main as dse_main
from repro.obs.__main__ import _build_parser as obs_parser
from repro.workloads import Workload

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
        "--strategy", "--budget", "--generations", "--mutation-rate",
        "--population", "--fidelity", "--promote-top", "--patience",
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
