"""One workload run, in its own process: set-up, measured rounds, checks.

``bench.py`` starts this file as a fresh subprocess per workload (with
``PYTHONHASHSEED=0`` and the cache environment pointed at the run's scratch
directory) and reads the JSON it writes.  The protocol:

1. set-up — importing the compiler, seeded inputs, cache pre-fill, one
   unmeasured warm-up round, bracketed by two calibrations; ``setup_s`` is
   its wall time over their mean, in seconds of the reference machine
   (``config.CALIB_REFERENCE_S``);
2. untraced run — rounds with the calibration loop spread over them
   (``calib.Pacer``) until ``--seconds`` have passed, then one round under
   ``cProfile`` for
   ``py_calls`` (``bench.py`` splits an untraced run over several such
   processes, so set-up is sampled more than once, and pools them); or
3. traced run — untraced and traced rounds alternate; after each traced
   round the layer probes run; per-layer numbers are medians over rounds.

Every round's outputs are checked (outside the timed region).
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import config
from calib import Pacer, calibration_loop, kernel_seconds, round_norm
from spans import NULL, Tracer, median_per_round, percentile

HERE = Path(__file__).resolve().parent


def _calibrator(smoke: bool):
    """The run's calibration call, in seconds per ``CALIB_ITERATIONS``."""
    if not smoke:
        return functools.partial(calibration_loop, config.CALIB_ITERATIONS)
    scale = config.CALIB_ITERATIONS / config.SMOKE_CALIB_ITERATIONS
    return lambda: calibration_loop(config.SMOKE_CALIB_ITERATIONS) * scale


def _geomean(values: List[float]) -> float:
    """Geometric mean of the positive ``values`` (a non-positive one is a
    failed item, which ``check`` reports)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


class Checker:
    """Accumulates the correctness verdicts of every round of a run."""

    def __init__(self, workload, golden: Dict) -> None:
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failures: List[str] = []
        self.designs: Dict[str, tuple] = {}
        self.digests: Dict[str, str] = {}
        self.findings: List[str] = []

    def absorb(self, out) -> int:
        """Check one round's outputs and record its designs (for design_qor
        and the golden check); returns the items it attempted.  The caller
        drops ``out`` afterwards, so that no round runs while the previous
        round's modules are still alive and ``peak_rss_mb`` is one round's.
        """
        attempted, failures = self.workload.check(out)
        self.attempted += attempted
        self.failures += failures
        designs = self.workload.designs(out)
        if self.designs and designs != self.designs:
            self.failures.append("designs differ between two rounds of one process")
        self.designs = designs
        self.digests = self.workload.digests(out)
        return attempted

    def design_qor(self) -> float:
        """Geometric mean of estimated throughput over the round's designs."""
        return _geomean([self.designs[key][0] for key in sorted(self.designs)])

    def qor_drift(self) -> int:
        """Designs and frontier digests that differ from ``golden.json``."""
        if self.workload.smoke:
            return 0  # the golden file describes the full-size inputs
        golden_designs = self.golden.get("designs", {})
        drift = 0
        for key in sorted(set(self.designs) | set(golden_designs)):
            ours, theirs = self.designs.get(key), golden_designs.get(key)
            same = (
                ours is not None
                and theirs is not None
                and all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(ours, theirs))
            )
            if not same:
                drift += 1
                self.findings.append(f"qor drift: {key}: golden {theirs}, now {ours}")
        for space, digest in self.digests.items():
            if self.golden.get("digests", {}).get(space) != digest:
                drift += 1
                self.findings.append(
                    f"frontier drift: {space}: golden "
                    f"{self.golden.get('digests', {}).get(space)}, now {digest}"
                )
        return drift


def _timed_round(workload, tracer):
    gc.collect()
    started = time.perf_counter()
    out = workload.round(tracer)
    return out, time.perf_counter() - started


def _measure_untraced(workload, checker: Checker, seconds: float, min_rounds: int) -> Dict:
    """Paced rounds until ``seconds`` have passed; returns the raw samples."""
    pacer = Pacer(config.CHUNK_ITERATIONS, config.CALIB_ITERATIONS)
    item_norms: List[List] = []
    walls: List[float] = []
    calibs: List[float] = []
    kernels: List[float] = []
    item_seconds: List[float] = []
    began = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() < began + seconds:
        gc.collect()
        pacer.begin()
        out = workload.round(NULL, pacer)
        item_norms.append(pacer.samples(config.CALIB_TOLERANCE))
        walls.append(sum(pacer.items))
        calibs.append(statistics.fmean(pacer.chunks))
        kernels.append(pacer.kernel_s)
        item_seconds += workload.item_seconds(out)
        checker.absorb(out)
        del out
    return {
        "item_norm": item_norms,
        "round_s": walls,
        "calib_s": calibs,
        "kernel_s": kernels,
        "item_s": item_seconds,
        "measure_s": time.perf_counter() - began,
    }


def _count_calls(workload, checker: Checker) -> int:
    """``py_calls``: Python + builtin calls of one round, from cProfile."""
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        out = workload.round(NULL)
    finally:
        profile.disable()
    checker.absorb(out)
    del out
    return pstats.Stats(profile).total_calls


def _measure_traced(
    workload, checker: Checker, seconds: float, min_rounds: int, calibrate, first_calib: float
):
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    calibs = [first_calib]
    kernels: List[float] = []
    item_seconds: List[float] = []
    items = 0
    deadline = time.perf_counter() + seconds
    while len(traced) < min_rounds or time.perf_counter() < deadline:
        kernel_before = kernel_seconds()
        out, wall = _timed_round(workload, NULL)
        untraced.append(wall)
        kernels.append(kernel_seconds() - kernel_before)
        checker.absorb(out)
        del out
        tracer.round = len(traced)
        out, wall = _timed_round(workload, tracer)
        traced.append(wall)
        item_seconds += workload.item_seconds(out)
        workload.probe(tracer, out)
        items += checker.absorb(out)
        del out
        calibs.append(calibrate())
    return tracer, {
        "untraced_s": untraced,
        "traced_s": traced,
        "calib_s": calibs,
        "kernel_s": kernels,
        "item_s": item_seconds,
        "items_per_round": items / max(1, len(traced)),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(names: List[str], tracer: Tracer, samples: Dict, checker: Checker) -> Dict:
    """Reduce the trace to the per-layer metrics named in BENCHMARK.json."""
    samples = samples["traced"]
    rounds = list(range(len(samples["traced_s"])))
    self_s = tracer.self_seconds()
    total_s = tracer.total_seconds()
    counts = tracer.counts()

    def self_of(span: str) -> float:
        return median_per_round(self_s, span, rounds)

    def total_of(span: str) -> float:
        return median_per_round(total_s, span, rounds)

    def count_of(name: str) -> float:
        return median_per_round(counts, name, rounds)

    round_s = statistics.median(samples["untraced_s"])
    traced_s = statistics.median(samples["traced_s"])
    resume_pass = _ratio(total_of("dse.resume_pass"), config.REPLAY_RESUME_PASSES)
    special = {
        "compiler.driver_self_s": self_of("compiler.run"),
        "compiler.unattributed_share": _ratio(
            self_of("compiler.run"), total_of("compiler.run")
        ),
        "analysis.tv_skipped_share": _ratio(
            count_of("analysis.tv_skipped"), count_of("analysis.tv_checks")
        ),
        "analysis.fuzz_rejected_share": _ratio(
            count_of("analysis.fuzz_rejected"), count_of("analysis.fuzz_applications")
        ),
        "ir.interp_ops_per_s": _ratio(count_of("ir.interp_ops"), self_of("ir.interp")),
        "dse.point_s": count_of("dse.point_s"),
        "dse.loop_self_s": max(
            0.0, count_of("dse.explore_wall_s") - count_of("dse.point_s")
        ),
        "dse.cache_hit_share": _ratio(count_of("dse.cache_hits"), count_of("dse.points")),
        "ircache.resume_gain": _ratio(total_of("dse.uncached_pass"), resume_pass),
        "obs.enabled_overhead": _ratio(total_of("obs.enabled_round"), round_s),
        "host.calib_s": statistics.median(samples["calib_s"]),
        "host.round_s": round_s,
        "host.kernel_s": statistics.median(samples["kernel_s"]),
        "host.items_per_s": _ratio(samples["items_per_round"], round_s),
        "host.item_p95_s": percentile(samples["item_s"], 0.95) or 0.0,
        "host.item_samples": len(samples["item_s"]),
        "host.trace_overhead": _ratio(traced_s, round_s),
        "host.traced_rounds": len(rounds),
        "host.qor_drift": checker.qor_drift(),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith("_s"):
            values[name] = self_of(name[:-2])
        else:
            values[name] = count_of(name)
    share = special["compiler.unattributed_share"]
    if share > 0.05:
        checker.findings.append(
            f"unattributed: {share:.1%} of Compiler.run wall is outside named layers"
        )
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--skip-count", action="store_true", help="no cProfile round")
    parser.add_argument("--emit-designs", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    # Set-up is bracketed by calibrations like a round.  The compiler is
    # imported inside the bracket, so that its import cost is set-up time.
    calibrate = _calibrator(args.smoke)
    calib_before = calibrate()
    setup_started = time.perf_counter()
    from workloads import WORKLOADS

    manifest = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})

    workload = WORKLOADS[args.workload](args.seed, args.smoke, Path(args.scratch))
    workload.prepare()
    checker = Checker(workload, golden)
    checker.absorb(workload.round(NULL))  # warm-up
    setup_wall_s = time.perf_counter() - setup_started
    calib_after = calibrate()
    setup_s = setup_wall_s / ((calib_before + calib_after) / 2) * config.CALIB_REFERENCE_S
    payload: Dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    # --smoke runs one round of each kind and reports both metric sets.
    values: Dict = {}
    samples: Dict = {}
    if args.smoke or not args.trace:
        samples["untraced"] = _measure_untraced(
            workload, checker, args.seconds, args.min_rounds
        )
        samples["untraced"]["setup_s"] = [setup_s]
        samples["untraced"]["setup_wall_s"] = [setup_wall_s]
        values = {
            "round_norm": round_norm(samples["untraced"]["item_norm"])[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "design_qor": checker.design_qor(),
            "setup_s": setup_s,
        }
        if not args.skip_count:
            values["py_calls"] = _count_calls(workload, checker)
    if args.smoke or args.trace:
        tracer, samples["traced"] = _measure_traced(
            workload, checker, args.seconds, args.min_rounds, calibrate, calib_after
        )
        names = [m["name"] for m in manifest["per_layer"]]
        values.update(_layer_metrics(names, tracer, samples, checker))
        tracer.dump(str(Path(args.result).with_suffix(".spans.json")))
    else:
        checker.qor_drift()
    payload.update(
        {
            "correct": not checker.failures,
            "attempted": checker.attempted,
            "failed": len(checker.failures),
            "failures": checker.failures[:20],
            "findings": checker.findings[:40],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
            "samples": samples,
        }
    )
    if args.emit_designs:
        payload["designs"] = {k: list(v) for k, v in checker.designs.items()}
        payload["digests"] = checker.digests
    Path(args.result).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
