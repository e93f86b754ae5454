"""``bench.py compare A.json B.json``: judge B against A by the ledger's bounds.

Each file is a ``results.json`` written by ``bench.py run --out``.  For every
workload x end-to-end metric the table shows both medians, quartiles and
sample counts and one verdict:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (interquartile
  distance over median) is wider than the bound, so the runs cannot tell,
  unless every run of B reads better than every run of A;
* ``ok`` — neither.

``failed_share`` (failed / attempted items) is judged too: any failure in B
is a regression.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

#: Floor under a zero bound: "exact" means equal to 1e-9 relative.
EXACT = 1e-9


def _load(path: str) -> Dict[str, List[Dict]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: Dict[str, List[Dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    low, _, high = statistics.quantiles(values, n=4)
    return low, median, high


def _spread(values: List[float]) -> float:
    low, median, high = _quartiles(values)
    return (high - low) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    bound = max(bound, EXACT)
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    b_always_better = all(sign * y < sign * x for x in a for y in b)
    if max(_spread(a), _spread(b)) > bound and not b_always_better:
        return "unresolved"
    return "regression" if worsening > bound else "ok"


def compare_files(path_a: str, path_b: str, manifest: Dict) -> int:
    runs_a, runs_b = _load(path_a), _load(path_b)
    regressions = 0
    header = (
        f"{'workload':<14}{'metric':<14}{'A q1':>13}{'A median':>13}{'A q3':>13}{'n':>4}"
        f"{'B q1':>13}{'B median':>13}{'B q3':>13}{'n':>4}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        rows = [
            (
                m["name"],
                [r["metrics"][m["name"]]["value"] for r in runs_a[workload]],
                [r["metrics"][m["name"]]["value"] for r in runs_b[workload]],
                m["better"],
                m["bound"],
            )
            for m in manifest["end_to_end"]
        ]
        shares = [
            [r["failed"] / max(1, r["attempted"]) for r in runs]
            for runs in (runs_a[workload], runs_b[workload])
        ]
        for name, a, b, better, bound in rows:
            result = verdict(a, b, better, bound)
            regressions += result == "regression"
            cells = "".join(
                f"{q:>13.6g}" for q in _quartiles(a)
            ) + f"{len(a):>4}" + "".join(f"{q:>13.6g}" for q in _quartiles(b)) + f"{len(b):>4}"
            print(f"{workload:<14}{name:<14}{cells}  {result}")
        failed = "regression" if max(shares[1]) > 0 else "ok"
        regressions += failed == "regression"
        cells = "".join(
            "".join(f"{q:>13.6g}" for q in _quartiles(side)) + f"{len(side):>4}"
            for side in shares
        )
        print(f"{workload:<14}{'failed_share':<14}{cells}  {failed}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
