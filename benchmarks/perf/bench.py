#!/usr/bin/env python3
"""The perf ledger's command line.

``bench.py run``      measure workloads and print every metric by name
``bench.py compare``  judge two result files against the ledger's bounds
``bench.py golden``   regenerate ``golden.json`` (benchmark PRs only)

``run`` takes ``--workload W --seed S --seconds N --trace 0|1``; with no
``--workload`` it runs all five, one fresh subprocess at a time.  The last
line of its standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import config
from calib import round_norm
from compare import compare_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Scratch for cache directories, worker results and the run lock.  Inside
#: the checkout (and git-ignored) because a run may write nowhere else.
RUNS = ROOT / ".bench_runs"
#: Per worker process; a run is at most three, and must end within 180 s.
WORKER_TIMEOUT_S = 55


def _manifest() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_tree() -> None:
    missing = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro" / "__init__.py", ROOT / "BENCHMARK.json")
        if not path.exists()
    ]
    if missing:
        sys.exit(f"bench.py: not a checkout of the compiler (missing {', '.join(missing)})")


class RunLock:
    """``flock`` guard: one perf run per checkout at a time."""

    def __enter__(self) -> "RunLock":
        RUNS.mkdir(exist_ok=True)
        self._handle = open(RUNS / "lock", "w")
        try:
            fcntl.flock(self._handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._handle.close()
            sys.exit("another perf run holds the lock; exiting")
        return self

    def __exit__(self, *exc) -> None:
        fcntl.flock(self._handle, fcntl.LOCK_UN)
        self._handle.close()


def _spawn_worker(run_dir: Path, tag: str, options: List[str]) -> Dict:
    """Run one ``worker.py`` process to completion and return its payload."""
    scratch = run_dir / tag
    scratch.mkdir(parents=True)
    result = scratch / "result.json"
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_DSE_CACHE=str(scratch / "default-qor-cache"),
        REPRO_IR_CACHE=str(scratch / "default-ir-cache"),
    )
    command = [sys.executable, str(HERE / "worker.py"), *options]
    command += ["--scratch", str(scratch), "--result", str(result)]
    done = subprocess.run(command, env=env, cwd=str(ROOT), timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0 or not result.exists():
        sys.exit(f"bench.py: worker {tag} failed with exit code {done.returncode}")
    payload = json.loads(result.read_text())
    spans = result.with_suffix(".spans.json")
    payload["spans_file"] = str(spans) if spans.exists() else None
    return payload


def run_workload(run_dir: Path, name: str, seed: int, args, manifest: Dict) -> Dict:
    """One run of one workload: spawn its process(es) and pool their samples.

    An untraced run is split over ``config.PROCESSES`` fresh processes, each
    setting up and then measuring for its share of ``--seconds``; only the
    last one adds the ``cProfile`` round.  Traced and smoke runs use one.
    """
    single = bool(args.trace or args.smoke)
    processes = 1 if single else config.PROCESSES
    if args.smoke:
        min_rounds = 1
    else:
        min_rounds = config.MIN_TRACED_ROUNDS if args.trace else config.MIN_ROUNDS
    options = ["--workload", name, "--seed", str(seed), "--trace", str(args.trace)]
    options += ["--seconds", str(args.seconds / processes), "--min-rounds", str(min_rounds)]
    if args.smoke:
        options.append("--smoke")
    payloads = [
        _spawn_worker(
            run_dir,
            f"{name}-s{seed}-t{args.trace}-p{index}",
            options + ([] if index == processes - 1 else ["--skip-count"]),
        )
        for index in range(processes)
    ]
    merged = payloads[-1]
    pooled = merged["samples"].get("untraced")
    if pooled:
        for other in payloads[:-1]:
            for key, value in other["samples"]["untraced"].items():
                pooled[key] = value + pooled[key]
            merged["attempted"] += other["attempted"]
            merged["failed"] += other["failed"]
            merged["failures"] = other["failures"] + merged["failures"]
            if other["metrics"]["design_qor"] != merged["metrics"]["design_qor"]:
                merged["findings"].append("design_qor differs between processes of one run")
        merged["correct"] = merged["failed"] == 0
        metrics = merged["metrics"]
        metrics["round_norm"]["value"], pooled["unsteady"] = round_norm(pooled["item_norm"])
        metrics["setup_s"]["value"] = statistics.median(pooled["setup_s"])
        metrics["peak_rss_mb"]["value"] = max(
            p["metrics"]["peak_rss_mb"]["value"] for p in payloads
        )
    expected = [m["name"] for m in manifest["end_to_end"]] if args.smoke or not args.trace else []
    expected += [m["name"] for m in manifest["per_layer"]] if args.smoke or args.trace else []
    if sorted(expected) != sorted(merged["metrics"]):
        sys.exit(
            f"bench.py: {name} emitted {sorted(merged['metrics'])}, declared {sorted(expected)}"
        )
    return merged


def _print_run(payload: Dict, manifest: Dict) -> None:
    metrics = payload["metrics"]
    print(f"\n== {payload['workload']}  seed={payload['seed']}")
    samples = payload["samples"].get("untraced")
    if samples:
        counts = {"round_norm": len(samples["item_norm"]), "setup_s": len(samples["setup_s"])}
        print(f"{'end-to-end (untraced)':<24}{'value':>18}  {'unit':<12}{'samples':>8}")
        for name in (m["name"] for m in manifest["end_to_end"]):
            print(
                f"{name:<24}{metrics[name]['value']:>18.9g}  {metrics[name]['unit']:<12}"
                f"{counts.get(name, 1):>8}"
            )
        share = payload["failed"] / max(1, payload["attempted"])
        print(f"{'failed_share':<24}{share:>18.9g}  {'ratio':<12}{payload['attempted']:>8}")
        print(
            f"set-up wall {statistics.median(samples['setup_wall_s']):.3f} s; "
            f"calibration {statistics.median(samples['calib_s']):.4f} s (min "
            f"{min(samples['calib_s']):.4f}, max {max(samples['calib_s']):.4f}); "
            f"{samples['unsteady']} of {sum(map(len, samples['item_norm']))} item samples "
            f"unsteady; kernel time left out {statistics.median(samples['kernel_s']):.3f} s "
            f"a round; measured {samples['measure_s']:.1f} s"
        )
    samples = payload["samples"].get("traced")
    if samples:
        calib = statistics.median(samples["calib_s"])
        print(f"{'per-layer (traced)':<44}{'value':>16}  {'unit':<8}{'/calib':>10}")
        for name in (m["name"] for m in manifest["per_layer"]):
            value, unit = metrics[name]["value"], metrics[name]["unit"]
            per_calib = f"{value / calib:10.4f}" if unit == "s" else ""
            print(f"{name:<44}{value:>16.6g}  {unit:<8}{per_calib}")
        print(
            f"rounds: {len(samples['traced_s'])} traced + {len(samples['untraced_s'])} "
            f"untraced; host.item_p95_s over {len(samples['item_s'])} items"
        )
    for line in payload["failures"]:
        print(f"FAILED  {line}")
    for line in payload["findings"][:8]:
        print(f"finding {line}")


def command_run(args) -> int:
    _require_tree()
    manifest = _manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit(f"bench.py: unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    with RunLock():
        run_dir = RUNS / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        try:
            runs = []
            for repeat in range(args.repeat):
                for name in selected:
                    payload = run_workload(run_dir, name, args.seed + repeat, args, manifest)
                    _print_run(payload, manifest)
                    runs.append(payload)
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                for payload in runs:
                    if payload["spans_file"]:
                        tag = f"{payload['workload']}-s{payload['seed']}.spans.json"
                        shutil.copy(payload["spans_file"], out / tag)
                    payload.pop("spans_file")
                (out / "results.json").write_text(json.dumps({"runs": runs}, indent=1))
                print(f"\nresults written to {out / 'results.json'}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    summary = {
        "correct": all(p["correct"] for p in runs),
        "attempted": sum(p["attempted"] for p in runs),
        "failed": sum(p["failed"] for p in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        summary["metrics"] = {
            f"{p['workload']}.s{p['seed']}.{name}": metric
            for p in runs
            for name, metric in p["metrics"].items()
        }
    print(json.dumps(summary))
    return 0


def _format_golden(golden: Dict) -> str:
    """One design per line, sorted: a regenerated file diffs design by design."""
    blocks = []
    for workload in sorted(golden):
        designs = golden[workload]["designs"]
        lines = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(designs[key])}" for key in sorted(designs)
        )
        digests = json.dumps(golden[workload]["digests"], sort_keys=True)
        blocks.append(
            f' {json.dumps(workload)}: {{\n  "digests": {digests},\n'
            f'  "designs": {{\n{lines}\n  }}\n }}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def command_golden(args) -> int:
    """Regenerate golden.json from this tree (one untraced round each)."""
    _require_tree()
    golden = {}
    with RunLock():
        run_dir = RUNS / f"golden-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        try:
            for workload in _manifest()["workloads"]:
                tag = f"{workload['name']}-golden"
                options = ["--workload", workload["name"], "--seconds", "0"]
                payload = _spawn_worker(
                    run_dir, tag, options + ["--skip-count", "--emit-designs"]
                )
                if not payload["correct"]:
                    sys.exit(f"bench.py: {workload['name']} failed: {payload['failures']}")
                golden[workload["name"]] = {
                    "designs": payload["designs"],
                    "digests": payload["digests"],
                }
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    (HERE / "golden.json").write_text(_format_golden(golden))
    print(f"wrote {HERE / 'golden.json'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    run.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: traced run printing the per-layer table",
    )
    run.add_argument("--smoke", action="store_true", help="one round over reduced inputs")
    run.add_argument("--repeat", type=int, default=1, help="runs, seeds S, S+1, ...")
    run.add_argument("--out", help="directory for results.json and span dumps")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="judge B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    golden = commands.add_parser("golden", help="regenerate golden.json")
    golden.set_defaults(handler=command_golden)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b, _manifest())
    if args.command == "run" and args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(_manifest()["run_seconds"])
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
