"""Standalone static-analysis CLI: sweep workloads, print a rule-hit table.

Examples::

    python -m repro.analysis --list-rules
    python -m repro.analysis --workload resnet18 --workload 2mm
    python -m repro.analysis --all-workloads
    python -m repro.analysis --all-workloads --json report.json
    python -m repro.analysis --all-workloads --write-baseline tools/analysis_baseline.json
    python -m repro.analysis --all-workloads --baseline tools/analysis_baseline.json
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

from .. import _cli
from ..compiler.driver import DEFAULT_PIPELINE, Compiler
from ..compiler.spec import PipelineSpecError
from ..evaluation.reporting import format_table
from .engine import AnalysisReport, analyze_module
from .rules import available_rules, rule_registry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static dataflow soundness analysis over compiled workloads.",
    )
    _cli.add_workload(parser, repeatable=True)
    _cli.add_sweep_flags(parser)  # --all-workloads: the full zoo
    _cli.add_target(parser, default="vu9p-slr")
    _cli.add_spec(parser, "--spec", default=DEFAULT_PIPELINE)
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
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare per-workload rule counts against this baseline JSON "
        "and exit with status 1 on any new hit",
    )
    parser.add_argument(
        "--write-baseline",
        type=_cli.output_path,
        default=None,
        metavar="PATH",
        help="write the observed per-workload rule counts as a baseline JSON",
    )
    _cli.add_json(parser, "the full per-workload reports")
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
        print(
            _cli.github_annotation(
                level,
                finding.rule,
                f"{label}: {finding.message}",
                file=f"printed-ir/{label}.mlir",
                line=line,
            )
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
    handles = _cli.sweep_workloads(parser, args)
    if args.rules:
        unknown = sorted(set(args.rules) - set(available_rules()))
        if unknown:
            parser.error(
                f"--rules: unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(available_rules())}"
            )

    rule_ids = args.rules or available_rules()
    reports: Dict[str, AnalysisReport] = {}
    failures: List[str] = []
    for handle in handles:
        label = handle.label()
        try:
            report = analyze_workload(handle, args.spec, args.platform)
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
            f"platform {args.platform}, spec {args.spec!r})",
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

    current = _counts_payload(reports, args.spec, args.platform)
    if args.json:
        payload = {
            "platform": args.platform,
            "spec": args.spec,
            "workloads": {
                label: report.to_dict() for label, report in reports.items()
            },
        }
        _cli.write_json(args.json, payload)
    if args.write_baseline:
        _cli.write_json(args.write_baseline, current, "baseline ")

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
    if failures:
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
