"""Tier-1 smoke test of the perf ledger (``bench.py run --smoke``).

One round per workload over reduced inputs: checks that the instrument
still runs against this tree and still emits exactly what ``BENCHMARK.json``
declares.  It asserts no timing — only names, units, counts, correctness and
that the traced layers account for ``Compiler.run``'s wall time.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in MANIFEST["end_to_end"]:
        assert 0 <= metric["bound"] <= 0.25
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in MANIFEST["end_to_end"]
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One ``bench.py run --smoke`` over all workloads, shared by the tests."""
    out = tmp_path_factory.mktemp("perf-smoke")
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    runs = json.loads((out / "results.json").read_text())["runs"]
    return {run["workload"]: run for run in runs}, done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, smoke_runs):
    runs, stdout = smoke_runs
    run = runs[workload]
    assert run["correct"] is True, run["failures"]
    assert run["attempted"] >= 1 and run["failed"] == 0
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert set(run["metrics"]) == set(declared)
    for name, metric in run["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name
    for metric in MANIFEST["end_to_end"]:
        assert run["metrics"][metric["name"]]["value"] > 0, metric["name"]
    if workload == "zoo-compile":
        # The gap is printed by the run as a finding, never hidden.
        share = run["metrics"]["compiler.unattributed_share"]["value"]
        assert share <= 0.05, stdout
