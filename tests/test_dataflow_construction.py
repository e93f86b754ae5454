"""The functional and structural dataflow of every zoo workload, pinned.

``tests/data/dataflow_construction_golden.json`` holds, per zoo workload and
per fusion setting (the pattern lists a DSE point's ``top_k_fusion`` and the
init-only ablation select), the sha256 of the printed module after
``construct-dataflow``, after ``fuse-tasks`` and after ``lower-structural``,
plus the number of fusions ``fuse-tasks`` performed.  So every task's
contents and order, every fused label, every node's operand order and
memory effect and every schedule's block arguments are held.

Regenerate only on purpose:
``PYTHONPATH=src python tests/test_dataflow_construction.py --regen``.
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.compiler import Compiler
from repro.hida import fuse_dataflow_tasks
from repro.ir.printer import print_op
from repro.workloads import list_workloads

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "dataflow_construction_golden.json"

#: Fusion setting -> the ``patterns`` ``fuse-tasks`` runs with.
_FUSION_SETTINGS = {
    "elementwise,init": ["elementwise", "init"],
    "elementwise": ["elementwise"],
    "init": ["init"],
}

_WORKLOADS = list_workloads()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(workload, setting):
    """The three stage digests and the fusion count of one compile."""
    module = Compiler.from_spec("construct-dataflow", platform="zu3eg").run_stages(
        workload=workload
    ).module
    row = {"construct-dataflow": _sha256(print_op(module))}
    row["fusions"] = fuse_dataflow_tasks(module, _FUSION_SETTINGS[setting])
    row["fuse-tasks"] = _sha256(print_op(module))
    Compiler.from_spec("lower-linalg,lower-structural", platform="zu3eg").run_stages(module)
    row["lower-structural"] = _sha256(print_op(module))
    return row


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("setting", _FUSION_SETTINGS)
@pytest.mark.parametrize("workload", _WORKLOADS)
def test_dataflow_stages_print_as_recorded(workload, setting):
    assert _record(workload, setting) == _golden()[setting][workload]


def test_golden_covers_the_zoo():
    golden = _golden()
    assert sorted(golden) == sorted(_FUSION_SETTINGS)
    for setting in _FUSION_SETTINGS:
        assert sorted(golden[setting]) == sorted(_WORKLOADS)
    assert len(_WORKLOADS) == 19
    # Every setting fuses somewhere, and the settings differ.
    totals = [sum(row["fusions"] for row in golden[s].values()) for s in _FUSION_SETTINGS]
    assert all(totals) and len(set(totals)) == len(totals)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dataflow_construction.py --regen")
    golden = {
        setting: {workload: _record(workload, setting) for workload in _WORKLOADS}
        for setting in _FUSION_SETTINGS
    }
    _GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(_WORKLOADS)} workloads x {len(golden)} fusion settings to {_GOLDEN_PATH}")
