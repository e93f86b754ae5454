"""The reachability census (``tools/census.py``) and its baseline.

The census itself runs every product path (minutes); these checks are the
cheap part: the hook on a fixture package, the baseline's entries and
reasons, and the tool's command table against ``ci.yml``.
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import census  # noqa: E402

FIXTURE = '''\
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor


def called():
    return 1


def _noop(fn):
    @functools.wraps(fn)
    def inner(*args):
        return fn(*args)
    return inner


@_noop
def decorated():
    return 2


def in_worker(x):
    return x + 1


def uncalled():
    return 3


class Thing:
    def __init__(self):
        self.value = 4

    @property
    def prop(self):
        return self.value

    def method(self):
        return self.prop


def main():
    called()
    decorated()
    Thing().method()
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    with pool:
        assert pool.submit(in_worker, 1).result() == 2
'''


def test_census_reports_only_the_uncalled_function(tmp_path):
    package = tmp_path / "src" / "fixturepkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    paths = [("fixture", ["python -c 'import fixturepkg.mod as m; m.main()'"])]
    reached = census.run_paths(
        paths, package, tmp_path / "scratch", pythonpath=[tmp_path / "src"]
    )
    functions = census.defined_functions(package)
    assert {f.name for f in functions} == {
        f"fixturepkg.mod:{name}"
        for name in ("called", "_noop", "decorated", "in_worker", "uncalled",
                     "Thing.__init__", "Thing.prop", "Thing.method", "main")
    }
    missing = [f.name for f in census.unreached(functions, reached)]
    assert missing == ["fixturepkg.mod:uncalled"]


def test_ci_command_lines_are_the_census_command_table():
    ci = census.ci_commands(census.CI_FILE.read_text())
    assert ci and ci == census.CI_COMMANDS


def test_census_runs_every_example():
    examples = {lines[0] for label, lines in census.PRODUCT_PATHS if label.startswith("example")}
    assert examples == {f"python {p}" for p in (ROOT / "examples").glob("*.py")}


def test_every_baseline_entry_exists_with_a_reason_of_an_allowed_kind():
    baseline = json.loads(census.BASELINE.read_text())
    defined = {f.name: f for f in census.defined_functions(census.PACKAGE)}
    kinds = set(census.REASON_KINDS)
    for name, reason in baseline.items():
        assert name in defined, f"{name} is in the baseline but not in src/"
        assert not defined[name].exempt, f"{name} is exempt by rule and needs no entry"
        kind = census.reason_kind(reason)
        assert kind in kinds and reason.split(":", 1)[1].strip(), f"{name}: {reason!r}"


@pytest.mark.parametrize(
    "source, exempt",
    [
        ("def __repr__(self):\n    return ''", "dunder"),
        ("@abc.abstractmethod\ndef run(self):\n    ...", "stub"),
    ],
)
def test_exempt_rule(tmp_path, source, exempt):
    package = tmp_path / "pkg"
    package.mkdir()
    body = textwrap.indent(source, "    ")
    (package / "m.py").write_text(f"import abc\n\n\nclass C(abc.ABC):\n{body}\n")
    (function,) = census.defined_functions(package)
    assert function.exempt == exempt
