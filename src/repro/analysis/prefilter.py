"""Static DSE pre-filter: reject infeasible design points before fan-out.

A design point is *statically infeasible* when no evaluation could ever
produce a usable QoR record for it:

* ``invalid-spec`` — its pipeline spec does not parse / build;
* ``no-estimate`` — the pipeline carries no ``estimate`` stage, so the
  compiler driver is guaranteed to raise after burning a full compile;
* ``static-error`` — compiling just the cheap structural prefix of the
  pipeline (every stage before ``parallelize``/``estimate``) yields a
  design the analyzer flags with an *error*-severity finding (deadlock or
  memory race) — the capacity model says the design stalls, so simulation
  budget on it is wasted.

Rejections are pure functions of the point (no RNG, no caches consulted),
so running :func:`~repro.dse.runner.explore` with the pre-filter on leaves
the records of every feasible point byte-identical to a run without it;
rejected points surface in :attr:`ExplorationResult.rejected
<repro.evaluation.reporting.ExplorationResult.rejected>` and never consume
distinct-point budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ERROR_RULES", "check_point", "filter_points"]

#: Rules whose error findings make a point not worth evaluating.  The
#: warning-level rules (token balance, buffer sizing) stay advisory: they
#: cost QoR, not correctness, and the DSE loop should still measure them.
ERROR_RULES = ("deadlock", "memory-race", "loop-carried-race", "illegal-unroll")

#: Stages after which point-specific knobs start mattering; the structural
#: prefix checked by the filter stops at the first of these.
_PREFIX_STOP = ("parallelize", "estimate", "lint")


def _rejection(point, reason: str, detail: str, **extra) -> Dict:
    record = {
        "point": point.to_dict(),
        "point_key": point.key(),
        "label": point.label(),
        "workload": point.workload,
        "reason": reason,
        "detail": detail,
    }
    record.update(extra)
    return record


def _structural_prefix(compiler) -> str:
    """Canonical spec of the stages before the first knob-bearing stage."""
    prefix = []
    for stage in compiler.stages:
        if stage.name in _PREFIX_STOP:
            break
        prefix.append(stage.to_spec().print())
    return ",".join(prefix)


def _prefix_errors(point, prefix_text: str) -> Optional[List]:
    """Error-severity findings of the compiled structural prefix.

    Returns None when the check could not run (prefix compile failed for a
    non-static reason): the full evaluation owns reporting such failures as
    error records, the filter must not swallow them.
    """
    from ..compiler.driver import Compiler
    from .engine import analyze_module

    try:
        state = Compiler.from_spec(prefix_text, platform=point.platform).run_stages(
            workload=point.workload_spec()
        )
        report = analyze_module(
            state.module, platform=point.platform, only=ERROR_RULES
        )
    except Exception:
        return None
    return report.errors


def check_point(point, _memo: Optional[Dict] = None) -> Optional[Dict]:
    """The rejection record of a statically infeasible point, else None.

    ``_memo`` (as threaded by :func:`filter_points`) caches prefix-compile
    verdicts per ``(workload identity, platform, prefix)``: a sweep typically
    fans one workload out over many knob settings that share the same
    structural prefix, which therefore compiles and lints once.
    """
    from ..compiler.spec import PipelineSpecError

    try:
        compiler = point.compiler()
    except PipelineSpecError as error:
        return _rejection(point, "invalid-spec", str(error))
    names = [stage.name for stage in compiler.stages]
    if "estimate" not in names:
        return _rejection(
            point,
            "no-estimate",
            f"pipeline {compiler.spec_text()!r} has no 'estimate' stage, "
            "so evaluation cannot produce a QoR record",
        )
    prefix_text = _structural_prefix(compiler)
    if not prefix_text:
        return None
    if _memo is None:
        errors = _prefix_errors(point, prefix_text)
    else:
        # The point's identity fields, not its handle: resolving the handle
        # is the registry round trip the memo exists to skip.
        memo_key = (point.workload_identity, point.platform, prefix_text)
        if memo_key not in _memo:
            _memo[memo_key] = _prefix_errors(point, prefix_text)
        errors = _memo[memo_key]
    if not errors:
        return None
    counts: Dict[str, int] = {}
    for finding in errors:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return _rejection(
        point,
        "static-error",
        f"{len(errors)} error-severity finding(s) on the structural prefix "
        f"{prefix_text!r}: {errors[0].message}",
        rule_counts=counts,
    )


def filter_points(points: Sequence) -> Tuple[List, List[Dict]]:
    """Split ``points`` into (feasible, rejection records), order-preserving."""
    memo: Dict = {}
    feasible: List = []
    rejected: List[Dict] = []
    for point in points:
        verdict = check_point(point, memo)
        if verdict is None:
            feasible.append(point)
        else:
            rejected.append(verdict)
    return feasible, rejected
