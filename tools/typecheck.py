#!/usr/bin/env python
"""Ratcheting mypy gate over the analyzer and IR layers.

Runs ``mypy --config-file mypy.ini`` over :data:`TARGETS` (the analyzer, IR,
telemetry, compiler-front-door, DSE, baseline, workload-registry and shared
CLI-flag layers) and diffs the findings against the committed baseline
(``tools/mypy_baseline.txt``):

* a finding not in the baseline fails the gate (new type error);
* a baseline entry that no longer fires is reported so the baseline can be
  tightened (run with ``--update`` to rewrite it).

Findings are normalized to ``path: error-code: message`` — line numbers are
dropped so unrelated edits that shift code do not churn the baseline.

Usage::

    python tools/typecheck.py            # gate (exit 1 on new errors)
    python tools/typecheck.py --update   # rewrite the baseline in place
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tools" / "mypy_baseline.txt"
TARGETS = [
    "src/repro/analysis",
    "src/repro/ir",
    "src/repro/obs",
    "src/repro/compiler",
    "src/repro/dse",
    "src/repro/baselines",
    "src/repro/_cli.py",
    "src/repro/backend",
    "src/repro/dialects/affine_map.py",
    "src/repro/workloads",
    "src/repro/estimation/platform.py",
    "src/repro/evaluation/reporting.py",
    "src/repro/hida/pipeline.py",
    "src/repro/hida/analysis.py",
    "src/repro/hida/dataflow_opt.py",
    "src/repro/transforms/array_partition.py",
    "src/repro/transforms/loop_transforms.py",
]

# "path/file.py:123: error: message  [code]" -> "path/file.py: message  [code]"
_LINE = re.compile(r"^(?P<path>[^:]+\.py):\d+(?::\d+)?: error: (?P<rest>.*)$")


def run_mypy() -> list[str]:
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        str(ROOT / "mypy.ini"),
        *TARGETS,
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    if proc.returncode not in (0, 1):  # 2+ = mypy itself blew up
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(proc.returncode)
    findings = []
    for line in proc.stdout.splitlines():
        match = _LINE.match(line.strip())
        if match:
            findings.append(f"{match.group('path')}: {match.group('rest')}")
    return sorted(set(findings))


def read_baseline() -> list[str]:
    if not BASELINE.exists():
        return []
    return [
        line.strip()
        for line in BASELINE.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with the current findings",
    )
    args = parser.parse_args(argv)

    findings = run_mypy()
    if args.update:
        lines = [
            "# mypy ratchet baseline — regenerate with:",
            "#   python tools/typecheck.py --update",
            *findings,
        ]
        BASELINE.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(findings)} finding(s) to {BASELINE}")
        return 0

    baseline = set(read_baseline())
    new = [f for f in findings if f not in baseline]
    fixed = sorted(baseline - set(findings))
    for finding in new:
        print(f"new type error: {finding}", file=sys.stderr)
    for finding in fixed:
        print(f"baseline entry no longer fires (tighten me): {finding}")
    if new:
        print(
            f"{len(new)} new type error(s) vs {BASELINE.name}; fix them or "
            f"(only for pre-existing debt) refresh with --update",
            file=sys.stderr,
        )
        return 1
    print(
        f"typecheck clean: {len(findings)} finding(s), all baselined "
        f"({len(fixed)} stale baseline entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
