"""Translation-validation CLI: zoo sweep and fuzz modes.

Examples::

    python -m repro.analysis.tv --workload 2mm --verbose
    python -m repro.analysis.tv --all-workloads --ablations --annotate
    python -m repro.analysis.tv --fuzz --count 200 --annotate
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from ... import _cli
from ...baselines.ablation import ABLATION_MODES, ablation_pipeline_spec
from ...compiler.driver import DEFAULT_PIPELINE
from ...workloads import iter_workloads
from . import ValidationReport, fuzz_transforms, validate_pipeline

#: Kernels with non-integer math need the documented relative tolerance;
#: everything else must stay bitwise.
_SWEEP_TOLERANCES = {"correlation": 1e-9}


def _sweep_workloads(handles: Sequence, everything: bool) -> List:
    """The sweep's workload handles (kernels shrink to n=8)."""
    if everything:
        handles = list(iter_workloads(kind="kernel"))
    shrunk = []
    for handle in handles:
        if "n" in handle.params:
            handle = handle.at(n=8)
        if "tsteps" in handle.params:
            handle = handle.at(tsteps=2)
        shrunk.append(handle)
    return shrunk


def _sweep_specs(spec: Optional[str], ablations: bool) -> List[Tuple[str, str]]:
    if spec:
        return [("spec", spec)]
    named = [("default", DEFAULT_PIPELINE)]
    if ablations:
        named += [
            (mode, ablation_pipeline_spec(mode, max_parallel_factor=8))
            for mode in sorted(ABLATION_MODES)
        ]
    return named


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.tv",
        description="Translation-validate pipelines, or fuzz checked "
        "transforms against the reference interpreter.",
    )
    _cli.add_workload(parser, repeatable=True)  # kernels shrink to n=8
    _cli.add_sweep_flags(parser)  # --all-workloads: every registered kernel
    _cli.add_spec(parser, "--spec", default=None)  # default: Figure-3 pipeline
    parser.add_argument(
        "--ablations",
        action="store_true",
        help="also sweep the four Figure-11 ablation pipelines",
    )
    _cli.add_target(parser, default="vu9p-slr")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fuzz",
        action="store_true",
        help="legality-fuzz mode: apply --count random checked transforms",
    )
    parser.add_argument(
        "--count", type=int, default=200, help="fuzz applications (default 200)"
    )
    _cli.add_json(parser, "every run's report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.fuzz:
        fuzzed = fuzz_transforms(count=args.count, seed=args.seed)
        print(
            f"fuzz: {fuzzed.applications} application(s), "
            f"{fuzzed.rejected} rejected, {fuzzed.validated} validated, "
            f"{len(fuzzed.failures)} silent change(s)"
        )
        for failure in fuzzed.failures:
            print(f"  FAIL {failure}")
            if args.annotate:
                print(_cli.github_annotation("error", "legality-fuzz", failure))
        if args.json:
            _cli.write_json(args.json, fuzzed.to_dict())
        return 0 if fuzzed.ok else 1

    if not args.workloads and not args.all_workloads:
        parser.error("pass --workload/--all-workloads (or --fuzz)")
    handles = _sweep_workloads(args.workloads, args.all_workloads)
    specs = _sweep_specs(args.spec, args.ablations)
    reports: List[ValidationReport] = []
    failures = 0
    for handle in handles:
        tolerance = _SWEEP_TOLERANCES.get(handle.definition.name, 0.0)
        for spec_name, spec_text in specs:
            report = validate_pipeline(
                handle,
                spec_text,
                platform=args.platform,
                seed=args.seed,
                tolerance=tolerance,
            )
            reports.append(report)
            outcome = report.outcomes()
            tag = "ok" if report.ok else "FAIL"
            line = f"{tag:4s} {report.workload:24s} {spec_name:8s} {outcome}"
            if args.verbose or not report.ok:
                print(line)
            if not report.ok:
                failures += 1
                detail = report.error or "; ".join(
                    f"{c.stage}: {c.mismatches[0] if c.mismatches else c.outcome}"
                    for c in report.mismatches
                )
                if args.annotate:
                    print(
                        _cli.github_annotation(
                            "error",
                            "translation-validation",
                            f"{report.workload} x {spec_name}: {detail}",
                        )
                    )
    print(
        f"validated {len(reports)} pipeline run(s) across "
        f"{len(handles)} workload(s) x {len(specs)} spec(s): "
        f"{failures} failure(s)"
    )
    if args.json:
        _cli.write_json(
            args.json,
            {"runs": [report.to_dict() for report in reports], "failures": failures},
        )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
