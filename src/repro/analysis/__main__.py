"""Standalone static-analysis CLI: sweep workloads, print a rule-hit table.

Examples::

    python -m repro.analysis --list-rules
    python -m repro.analysis --workload resnet18 --workload 2mm
    python -m repro.analysis --all-workloads
    python -m repro.analysis --all-workloads --json report.json
    python -m repro.analysis --all-workloads --write-baseline tools/analysis_baseline.json
    python -m repro.analysis --all-workloads --baseline tools/analysis_baseline.json
    python -m repro.analysis --workload lenet --fail-on warning
    python -m repro.analysis --workload atax \\
        --spec "construct-dataflow,lower-structural,estimate"

Every workload compiles through ``--spec`` (default: the full Figure-3
pipeline) and the final structural design is analyzed; the table reports
per-rule hit counts.  ``--baseline`` compares those counts against a
committed file and fails on any *new* hit — the CI smoke check that keeps
the zoo clean without freezing intentional findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..compiler.driver import DEFAULT_PIPELINE, Compiler
from ..compiler.spec import PipelineSpecError
from ..evaluation.reporting import format_table
from ..targets import UnknownTargetError, get_target
from ..workloads import UnknownWorkloadError, get_workload, iter_workloads
from .engine import AnalysisReport, analyze_module
from .rules import available_rules, rule_registry, severity_rank


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static dataflow soundness analysis over compiled workloads.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        default=None,
        metavar="NAME[@PARAM=VALUE,...]",
        help="analyze this registered workload; repeatable",
    )
    parser.add_argument(
        "--all-workloads",
        action="store_true",
        help="analyze every registered workload (the full zoo)",
    )
    parser.add_argument(
        "--target",
        "--platform",
        dest="platform",
        default="vu9p-slr",
        metavar="NAME",
        help="target platform (default: vu9p-slr)",
    )
    parser.add_argument(
        "--spec",
        default=DEFAULT_PIPELINE,
        help="pipeline spec compiled before analysis "
        "(default: the full Figure-3 pipeline)",
    )
    parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="RULE",
        help="restrict to this rule id; repeatable (see --list-rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, severity, description) and exit",
    )
    parser.add_argument(
        "--fail-on",
        choices=("never", "note", "warning", "error"),
        default="never",
        metavar="SEVERITY",
        help="exit with status 1 when any finding reaches this severity",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare per-workload rule counts against this baseline JSON "
        "and exit with status 1 on any new hit",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the observed per-workload rule counts as a baseline JSON",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the full per-workload reports as JSON to PATH",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every individual finding, not just the count table",
    )
    parser.add_argument(
        "--annotate",
        action="store_true",
        help="emit GitHub Actions workflow annotations "
        "(::error file=...) for every finding",
    )
    return parser


#: Lint severity -> GitHub workflow-command level.
_ANNOTATION_LEVELS = {"error": "error", "warning": "warning", "note": "notice"}


def _print_annotations(label: str, report: AnalysisReport) -> None:
    """One ``::level file=...`` workflow command per finding.

    The file is the virtual printed-IR path of the workload (the same text
    ``--print-ir`` renders and diagnostics' line numbers index into).
    """
    for finding in report.diagnostics:
        level = _ANNOTATION_LEVELS.get(finding.severity, "warning")
        line = finding.location.line if finding.location else 1
        message = f"{label}: {finding.message}"
        print(
            f"::{level} file=printed-ir/{label}.mlir,line={line},"
            f"title={finding.rule}::{message}"
        )


def _print_rule_catalog() -> None:
    for rule_id, cls in rule_registry().items():
        print(f"{rule_id:14s} [{cls.severity}] {cls.description}")
        if cls.hint:
            print(f"  hint: {cls.hint}")


def analyze_workload(handle, spec: str, platform: str) -> AnalysisReport:
    """Compile one workload through ``spec`` and analyze the final design."""
    state = Compiler.from_spec(spec, platform=platform).run_stages(workload=handle)
    return analyze_module(state.module, platform=platform)


def _counts_payload(
    reports: Dict[str, AnalysisReport], spec: str, platform: str
) -> Dict:
    return {
        "platform": platform,
        "spec": spec,
        "counts": {label: report.counts() for label, report in reports.items()},
    }


def _new_hits(current: Dict, baseline: Dict) -> List[str]:
    """Human-readable lines for every count exceeding the baseline."""
    lines: List[str] = []
    baseline_counts = baseline.get("counts", {})
    for label in sorted(current["counts"]):
        allowed = baseline_counts.get(label, {})
        for rule, count in sorted(current["counts"][label].items()):
            if count > int(allowed.get(rule, 0)):
                lines.append(
                    f"{label}: {rule} hit {count} time(s), "
                    f"baseline allows {int(allowed.get(rule, 0))}"
                )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rule_catalog()
        return 0
    if bool(args.workloads) == bool(args.all_workloads):
        parser.error("pass --workload NAME (repeatable) or --all-workloads")
    if args.rules:
        unknown = sorted(set(args.rules) - set(available_rules()))
        if unknown:
            parser.error(
                f"--rules: unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(available_rules())}"
            )
    try:
        platform = get_target(args.platform).name
    except UnknownTargetError as error:
        parser.error(f"--target: {error}")

    if args.all_workloads:
        handles = list(iter_workloads())
    else:
        handles = []
        for name in args.workloads:
            try:
                handles.append(get_workload(name))
            except (UnknownWorkloadError, ValueError) as error:
                parser.error(f"--workload: {error}")

    rule_ids = args.rules or available_rules()
    reports: Dict[str, AnalysisReport] = {}
    failures: List[str] = []
    for handle in handles:
        label = handle.label()
        try:
            report = analyze_workload(handle, args.spec, platform)
        except PipelineSpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except Exception as error:  # pragma: no cover - zoo-dependent
            failures.append(f"{label}: {type(error).__name__}: {error}")
            continue
        if args.rules:
            report.diagnostics = [
                d for d in report.diagnostics if d.rule in set(args.rules)
            ]
        reports[label] = report

    headers = ["workload", "schedules", *rule_ids, "suppressed"]
    rows = []
    for label in sorted(reports):
        report = reports[label]
        counts = report.counts()
        rows.append(
            [
                label,
                report.schedules,
                *[counts.get(rule, 0) for rule in rule_ids],
                report.suppressed,
            ]
        )
    totals = [
        "total",
        sum(r.schedules for r in reports.values()),
        *[
            sum(r.counts().get(rule, 0) for r in reports.values())
            for rule in rule_ids
        ],
        sum(r.suppressed for r in reports.values()),
    ]
    rows.append(totals)
    print(
        format_table(
            headers,
            rows,
            f"Static analysis ({len(reports)} workload(s), "
            f"platform {platform}, spec {args.spec!r})",
        )
    )
    if args.verbose:
        for label in sorted(reports):
            for finding in reports[label].diagnostics:
                print(f"{label}: {finding}")
    if args.annotate:
        for label in sorted(reports):
            _print_annotations(label, reports[label])
    for failure in failures:
        print(f"compile failure (not analyzed): {failure}", file=sys.stderr)

    current = _counts_payload(reports, args.spec, platform)
    if args.json:
        payload = {
            "platform": platform,
            "spec": args.spec,
            "workloads": {
                label: report.to_dict() for label, report in reports.items()
            },
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline {args.write_baseline}")

    status = 0
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = _new_hits(current, baseline)
        for line in regressions:
            print(f"new hit vs baseline: {line}", file=sys.stderr)
        if regressions:
            status = 1
        else:
            print(f"no new hits vs baseline {args.baseline}")
    if args.fail_on != "never":
        floor = severity_rank(args.fail_on)
        offenders = [
            f"{label}: {finding}"
            for label in sorted(reports)
            for finding in reports[label].diagnostics
            if severity_rank(finding.severity) >= floor
        ]
        for line in offenders:
            print(f"fail-on {args.fail_on}: {line}", file=sys.stderr)
        if offenders:
            status = 1
    if failures:
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
