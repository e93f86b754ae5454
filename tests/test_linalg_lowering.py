"""The linalg ops' counts, their lowered loop nests and the zoo's C++, pinned.

``tests/data/linalg_lowering_golden.json`` holds three tables:

* ``lowered``: per model, the sha256 of the printed module after
  ``construct-dataflow,fuse-tasks,lower-linalg``, so every loop's name hint,
  bounds, parallel flag, access map and body op order is held;
* ``ops``: per model, one ``(name, layer, macs(), num_scalar_ops(),
  is_elementwise)`` row for every linalg op of its frontend module, in
  program order;
* ``cpp``: per zoo workload, the sha256 of ``emit_hls_cpp`` after the
  default pipeline on the perf ledger's target (models on ``vu9p-slr`` at
  ``parallelize{factor=64}``, kernels on ``zu3eg`` at ``factor=32``).

Regenerate only on purpose:
``PYTHONPATH=src python tests/test_linalg_lowering.py --regen``.
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.backend import emit_hls_cpp
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.dialects import linalg
from repro.dialects.memref import GetGlobalOp
from repro.ir.printer import print_op
from repro.workloads import as_module, list_workloads

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "linalg_lowering_golden.json"

_LOWERING_SPEC = "construct-dataflow,fuse-tasks,lower-linalg"

#: Workload kind -> (platform, parallelize factor) of the perf ledger's zoo compile.
_LEDGER_TARGETS = {"model": ("vu9p-slr", 64), "kernel": ("zu3eg", 32)}

_MODELS = list_workloads(kind="model")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _lowered(model):
    """``model``'s module after ``lower-linalg`` (shared, do not modify)."""
    return Compiler.from_spec(_LOWERING_SPEC, platform="zu3eg").run_stages(
        workload=model
    ).module


def _op_rows(model):
    return [
        [op.name, op.get_attr("layer", ""), op.macs(), op.num_scalar_ops(), op.is_elementwise]
        for op in as_module(model).walk()
        if isinstance(op, linalg.LinalgOp)
    ]


def _cpp_digest(workload, kind):
    platform, factor = _LEDGER_TARGETS[kind]
    spec = DEFAULT_PIPELINE.replace("parallelize", f"parallelize{{factor={factor}}}")
    module = Compiler.from_spec(spec, platform=platform).run(workload=workload).module
    return _sha256(emit_hls_cpp(module))


def _cpp_digests():
    return {
        workload: _cpp_digest(workload, kind)
        for kind in _LEDGER_TARGETS
        for workload in list_workloads(kind=kind)
    }


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("model", _MODELS)
def test_lowered_model_prints_as_recorded(model):
    assert _sha256(print_op(_lowered(model))) == _golden()["lowered"][model]


@pytest.mark.parametrize("model", _MODELS)
def test_every_linalg_op_counts_as_recorded(model):
    assert _op_rows(model) == _golden()["ops"][model]


def test_every_zoo_workload_emits_the_recorded_cpp():
    golden = _golden()["cpp"]
    actual = _cpp_digests()
    assert sorted(actual) == sorted(golden)
    assert [w for w in golden if actual[w] != golden[w]] == []


def test_golden_covers_the_zoo():
    golden = _golden()
    assert sorted(golden["lowered"]) == sorted(golden["ops"]) == sorted(_MODELS)
    assert sorted(golden["cpp"]) == sorted(list_workloads())
    assert len(golden["cpp"]) == 19
    assert sum(map(len, golden["ops"].values())) == 499


@pytest.mark.xfail(
    strict=True,
    reason="lower-linalg reads no bias operand, so DCE erases every bias global",
)
@pytest.mark.parametrize("model", _MODELS)
def test_every_bias_global_is_read_after_lowering(model):
    biased = [
        op
        for op in as_module(model).walk()
        if isinstance(op, (linalg.Conv2DOp, linalg.LinearOp)) and op.get_attr("has_bias")
    ]
    read_biases = [
        op
        for op in _lowered(model).walk()
        if isinstance(op, GetGlobalOp)
        and "_bias_" in op.get_attr("symbol")
        and op.result().has_uses
    ]
    assert biased
    assert len(read_biases) == len(biased)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_linalg_lowering.py --regen")
    golden = {
        "lowered": {model: _sha256(print_op(_lowered(model))) for model in _MODELS},
        "ops": {model: _op_rows(model) for model in _MODELS},
        "cpp": _cpp_digests(),
    }
    _GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['lowered'])} models and {len(golden['cpp'])} workloads to {_GOLDEN_PATH}")
