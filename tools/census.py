#!/usr/bin/env python
"""Reachability census of ``src/repro``: which functions no product path calls.

Runs every product path of the repository (:data:`PRODUCT_PATHS`: the paper
benchmarks, the examples, a default-pipeline compile and C++ emit of every
workload, the CLI smoke commands of CI's ``test`` job and the perf ledger's
workers) in fresh interpreters under a profile hook, and lists every
top-level function and method of ``src/repro`` that none of them called.
``tests/`` is not a product path.

The list is diffed against ``tools/census_baseline.json``, which maps each
unreached function's qualified name to a one-line reason of one kind
(:data:`REASON_KINDS`).  ``--check`` fails when a function becomes unreached
and the baseline does not list it, and when a baseline entry is reached
again or no longer exists.  Dunder methods and stubs (abstract, ``Protocol``
or ``raise NotImplementedError`` bodies) are exempt by rule and only counted.

Usage::

    python tools/census.py --check           # the ratchet (exit 1 on drift)
    python tools/census.py --write           # rewrite the baseline in place
    python tools/census.py --check --jobs 2  # run two product paths at a time

``--write`` keeps the reason of every entry that stays unreached and gives a
new entry the reason ``TODO``, which the baseline test rejects until it is
replaced by a reason of an allowed kind.

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it reaches every
interpreter a product path starts with that environment: a ``cProfile``
profiler in the main thread, ``threading.setprofile`` in other threads, and a
dump at exit.  Fork pool workers leave through ``os._exit`` and skip
``atexit``; a ``multiprocessing.util.Finalize`` registered after the fork
dumps them.  ``benchmarks/perf/bench.py`` overwrites ``PYTHONPATH``, so its
workers are run here directly, with ``--skip-count`` (their counted cProfile
round would replace the hook).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BASELINE = ROOT / "tools" / "census_baseline.json"
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"

# What may keep a function that no product path calls.
REASON_KINDS = {
    "safety": "an error path or check that a correct run never takes",
    "paper-feature": "a paper feature that no workload triggers; the reason names the trigger",
    "user-api": "a CLI flag, or a name that README.md or docs/ documents",
    "roadmap": "queued for the ROADMAP item the reason names",
}

_ZOO = (
    "from repro.backend import emit_hls_cpp\n"
    "from repro.compiler import DEFAULT_PIPELINE, Compiler\n"
    "from repro.workloads import list_workloads\n"
    "for name in list_workloads():\n"
    "    emit_hls_cpp(Compiler.from_spec(DEFAULT_PIPELINE).run(workload=name).module)\n"
)

# The ``python -m repro.*`` lines of CI's test job, as written there; they
# run in order in one scratch directory, with ``$RUNNER_TEMP`` set.
# ``tests/test_census.py`` holds this list equal to the lines of ``ci.yml``.
CI_COMMANDS = [
    "python -m repro.compiler --print-default-pipeline",
    "python -m repro.compiler --list-workloads",
    "python -m repro.compiler --list-targets",
    'python -m repro.compiler --workload atax --target zu3eg --spec "construct-dataflow,'
    'lower-structural,balance,parallelize{factor=8,target-ii=2},estimate" --timings',
    "python -m repro.compiler --workload atax --target zu3eg --verify --validate",
    'python -m repro.compiler --workload atax --target zu3eg --spec "construct-dataflow,'
    'lower-linalg,lower-structural,verify,parallelize,estimate,verify{after=estimate}"',
    'once=$(python -m repro.compiler --workload lenet --target zu3eg --spec "construct-dataflow,'
    'lower-linalg,lower-structural,estimate" | grep "throughput:")',
    'twice=$(python -m repro.compiler --workload lenet --target zu3eg --spec "construct-dataflow,'
    'lower-linalg,lower-structural,lower-structural,estimate" | grep "throughput:")',
    "python -m repro.compiler --workload lenet --target zu3eg --spec estimate || status=$?",
    "python -m repro.compiler --workload 2mm --target zu3eg --validate --spec \"$(python -c "
    "'from repro.baselines import scalehls_pipeline_spec as s; print(s(8))')\"",
    "python -m repro.compiler --workload 2mm --target zu3eg --validate --spec \"$(python -c "
    "'from repro.baselines import vitis_pipeline_spec as s; print(s())')\"",
    "python -m repro.dse --list-workloads",
    "python -m repro.dse --space small --workers 2 --dry-run",
    "python -m repro.dse --space small --strategy random --budget 12 --workers 2 --seed 7 "
    "--workload atax --workload mvt",
    "python -m repro.dse --list-fidelities",
    "python -m repro.dse --list-strategies",
    "python -m repro.dse --space small --strategy random --fidelity simulate --promote-top 0.25 "
    "--budget 12 --seed 7 > fidelity-smoke.log",
    "python -m repro.compiler --workload gesummv@n=16 --target zu3eg --ir-cache --ir-cache-dir "
    "ir-cache-exec --cache-stats > cold-exec.log",
    "python -m repro.compiler --workload 2mm --target zu3eg --ir-cache --ir-cache-dir "
    "ir-cache-smoke --cache-stats",
    "python -m repro.compiler --workload 2mm --target zu3eg --ir-cache --ir-cache-dir "
    "ir-cache-smoke --cache-stats > warm-compile.log",
    "python -m repro.dse --space small --workload 2mm --platform zu3eg --strategy random "
    "--budget 12 --seed 7 --no-cache --ir-cache --ir-cache-dir ir-cache-smoke > warm-dse.log",
    "python -m repro.analysis --list-rules",
    "python -m repro.analysis --all-workloads --baseline tools/analysis_baseline.json",
    "python -m repro.compiler --workload 2mm --target zu3eg --lint --lint-fail-on warning",
    "python -m repro.analysis --all-workloads --rules loop-carried-race --rules illegal-unroll "
    "--rules bank-conflict --baseline tools/analysis_baseline.json --annotate",
    "python -W error::RuntimeWarning -m repro.analysis.tv --all-workloads --ablations "
    '--annotate --json "$RUNNER_TEMP/tv.json"',
    'python -m repro.analysis.tv --fuzz --count 200 --annotate --json "$RUNNER_TEMP/fuzz.json"',
    "python -m repro.dse --space small --workload atax --workload mvt --sample 4 --workers 2 "
    "--seed 7 --cache-dir qor-cache-smoke --trace-out trace-smoke.json --metrics-json "
    "metrics-smoke.json > trace-smoke.log",
    "python -m repro.obs trace-smoke.json --validate --counters --top 10",
]

#: The perf ledger's workloads, as BENCHMARK.json declares them.
PERF_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _perf_worker(workload: str, trace: int) -> str:
    out = f"perf/{workload}-t{trace}"
    return (
        f"mkdir -p {out} && PYTHONHASHSEED=0 REPRO_DSE_CACHE=$PWD/{out}/qor "
        f"REPRO_IR_CACHE=$PWD/{out}/ir python {ROOT}/benchmarks/perf/worker.py "
        f"--workload {workload} --smoke --skip-count --trace {trace} "
        f"--scratch {out} --result {out}/result.json"
    )


# One entry per group of shell lines that run in order in one scratch
# directory; groups may run in parallel (``--jobs``).
PRODUCT_PATHS: List[Tuple[str, List[str]]] = [
    ("paper benchmarks", [f"python -m pytest {ROOT}/benchmarks -q -p no:cacheprovider "
                          f"--ignore={ROOT}/benchmarks/perf"]),
    ("zoo compile and C++ emit", [f"python -c {shlex.quote(_ZOO)}"]),
    ("CI smoke commands", ["ln -s " + str(ROOT / "tools") + " tools", *CI_COMMANDS]),
    *(
        (f"example {path.name}", [f"python {path}"])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    *(
        (f"perf worker {workload} --trace {trace}", [_perf_worker(workload, trace)])
        for workload in PERF_WORKLOADS
        for trace in (0, 1)
    ),
]

# Written as ``sitecustomize.py`` into a directory put first on PYTHONPATH.
_HOOK = '''\
import atexit, os, sys, threading
_ROOT = os.environ.get("CENSUS_ROOT")
if _ROOT:
    import cProfile
    _profile = cProfile.Profile()
    _thread_codes = set()

    def _thread_hook(frame, event, arg):
        if event == "call":
            _thread_codes.add(frame.f_code)

    def _dump():
        _profile.disable()
        codes = {e.code for e in _profile.getstats() if not isinstance(e.code, str)}
        codes |= _thread_codes
        rows = {f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}" for c in codes
                if os.path.realpath(c.co_filename).startswith(_ROOT)}
        name = f"{os.getpid()}-{os.urandom(4).hex()}.txt"
        with open(os.path.join(os.environ["CENSUS_RECORDS"], name), "w") as handle:
            handle.write("\\n".join(sorted(rows)))

    class _Forked:
        registered = False

    def _after_fork(_):
        sys.modules["multiprocessing.util"].Finalize(None, _dump, exitpriority=0)

    def _before_fork():
        util = sys.modules.get("multiprocessing.util")
        if util is not None and not _Forked.registered:
            _Forked.registered = True
            util.register_after_fork(_Forked, _after_fork)

    os.register_at_fork(before=_before_fork)
    atexit.register(_dump)
    threading.setprofile(_thread_hook)
    _profile.enable()
'''


class Function(NamedTuple):
    name: str  # qualified: package.module:Class.method
    path: str  # relative to the package's parent
    first_line: int  # of the first decorator, as ``co_firstlineno``
    code_name: str  # ``co_name``, the name after ``def``
    lines: int
    exempt: str  # "", "dunder" or "stub"


def _bodies(node: ast.AST) -> Iterator[List[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        body = getattr(node, field, None)
        if isinstance(body, list):
            yield body
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    return {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] for d in node.decorator_list}


def _raises_not_implemented(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The body is one ``raise NotImplementedError``, after an optional docstring."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def defined_functions(package: Path) -> List[Function]:
    """Every top-level function and method (of classes at any class depth)
    of the ``.py`` files under ``package``; nested functions are not counted."""
    found: List[Function] = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent)
        module = ".".join(relative.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        seen: Dict[str, int] = {}

        def visit(body: List[ast.stmt], prefix: str, protocol: bool) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = _decorator_names(node)
                    name = prefix + node.name
                    if decorators & {"setter", "deleter"}:
                        name += "." + (decorators & {"setter", "deleter"}).pop()
                    seen[name] = seen.get(name, 0) + 1
                    if seen[name] > 1:
                        name += f"#{seen[name]}"
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    if node.name.startswith("__") and node.name.endswith("__"):
                        exempt = "dunder"
                    elif (
                        protocol
                        or decorators & {"abstractmethod", "overload"}
                        or _raises_not_implemented(node)
                    ):
                        exempt = "stub"
                    else:
                        exempt = ""
                    found.append(
                        Function(f"{module}:{name}", str(relative), first, node.name,
                                 node.end_lineno - first + 1, exempt)
                    )
                elif isinstance(node, ast.ClassDef):
                    bases = {ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases}
                    visit(node.body, f"{prefix}{node.name}.", "Protocol" in bases)
                else:
                    for inner in _bodies(node):
                        visit(inner, prefix, protocol)

        visit(ast.parse(path.read_text(), str(path)).body, "", False)
    return found


def _run_group(label: str, lines: Sequence[str], env: Dict[str, str], work: Path) -> str:
    work.mkdir(parents=True)
    script = "set -e\n" + "\n".join(lines) + "\n"
    done = subprocess.run(
        ["bash", "-c", script], cwd=work, env=dict(env, RUNNER_TEMP=str(work)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-15:])
        return f"{label}: exit {done.returncode}\n{tail}"
    return ""


def run_paths(
    paths: Sequence[Tuple[str, Sequence[str]]], package: Path, scratch: Path, jobs: int = 1,
    pythonpath: Sequence[Path] = (),
) -> Set[Tuple[str, int, str]]:
    """Run ``paths`` under the hook; return the (path relative to the
    package's parent, first line, name) of every ``package`` code object any
    of their processes called.  A failing group raises ``RuntimeError``."""
    hook, records, bin_dir = scratch / "hook", scratch / "records", scratch / "bin"
    for directory in (hook, records, bin_dir):
        directory.mkdir(parents=True)
    (hook / "sitecustomize.py").write_text(_HOOK)
    (bin_dir / "python").symlink_to(sys.executable)
    root = os.path.realpath(package)
    env = dict(os.environ)
    env.update(
        CENSUS_ROOT=root,
        CENSUS_RECORDS=str(records),
        PATH=f"{bin_dir}{os.pathsep}{env.get('PATH', '')}",
        PYTHONPATH=os.pathsep.join(str(p) for p in [hook, *pythonpath]),
        REPRO_DSE_CACHE=str(scratch / "qor-cache"),
        REPRO_IR_CACHE=str(scratch / "ir-cache"),
    )
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        failures = [f for f in pool.map(
            lambda item: _run_group(item[1][0], item[1][1], env, scratch / f"run{item[0]}"),
            enumerate(paths),
        ) if f]
    if failures:
        raise RuntimeError("product paths failed:\n" + "\n".join(failures))
    parent = Path(root).parent
    reached: Set[Tuple[str, int, str]] = set()
    for record in records.iterdir():
        for row in record.read_text().splitlines():
            filename, line, name = row.split("\t")
            relative = os.path.relpath(os.path.realpath(filename), parent)
            reached.add((relative, int(line), name))
    return reached


def unreached(functions: Sequence[Function], reached: Set[Tuple[str, int, str]]) -> List[Function]:
    return [f for f in functions if (f.path, f.first_line, f.code_name) not in reached]


def reason_kind(reason: str) -> str:
    return reason.split(":", 1)[0].strip()


def compare(missing: Sequence[Function], baseline: Dict[str, str]) -> Tuple[List[str], List[str]]:
    """(unreached functions the baseline does not list, baseline entries
    that are reached again or gone)."""
    listed = {f.name for f in missing if not f.exempt}
    return sorted(listed - set(baseline)), sorted(set(baseline) - listed)


def summary(functions: Sequence[Function], missing: Sequence[Function], baseline: Dict) -> str:
    kept = [f for f in missing if not f.exempt]
    kinds = Counter(reason_kind(reason) for reason in baseline.values())
    exempt = Counter(f.exempt for f in missing)
    return (
        f"{len(functions)} functions ({sum(f.lines for f in functions)} lines) in "
        f"{PACKAGE.relative_to(ROOT)}; unreached: {len(kept)} "
        f"({sum(f.lines for f in kept)} lines) plus {exempt['dunder']} dunder and "
        f"{exempt['stub']} stub methods exempt by rule\n"
        "baseline by reason kind: "
        + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))
    )


def ci_commands(text: str) -> List[str]:
    """The ``python -m repro.*`` lines of the ``test`` job's ``run`` blocks
    in ``ci.yml`` ``text``, continuation lines joined, blanks collapsed."""
    job = re.search(r"^  test:\n(.*?)(?=^  \S|\Z)", text, re.S | re.M).group(1)
    logical, indent, pending = [], None, ""
    for line in job.splitlines():
        width = len(line) - len(line.lstrip())
        if indent is not None and line.strip() and width <= indent:
            indent = None
        if indent is None:
            if re.match(r"\s*(- )?run: \|$", line):
                indent = width
            continue
        pending += " " + line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1]
        else:
            logical.append(" ".join(pending.split()))
            pending = ""
    return [c for c in logical if re.search(r"\bpython\b[^|]*? -m repro\.", c)]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="fail on drift from the baseline")
    action.add_argument("--write", action="store_true", help="rewrite the baseline in place")
    parser.add_argument("--jobs", type=int, default=1, help="product paths run at a time")
    args = parser.parse_args(argv)

    functions = defined_functions(PACKAGE)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        reached = run_paths(PRODUCT_PATHS, PACKAGE, Path(scratch), args.jobs,
                            pythonpath=[ROOT / "src"])
    missing = unreached(functions, reached)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    if args.write:
        baseline = {f.name: baseline.get(f.name, "TODO") for f in missing if not f.exempt}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(summary(functions, missing, baseline))
        return 0
    new, stale = compare(missing, baseline)
    print(summary(functions, missing, baseline))
    for name in new:
        print(f"unreached and not in the baseline: {name}")
    for name in stale:
        print(f"in the baseline but reached or gone: {name}")
    if new or stale:
        print(f"{len(new) + len(stale)} difference(s); fix the code or run "
              "`python tools/census.py --write` and give each new entry a reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
