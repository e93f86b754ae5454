"""The HLS C++ emitter: the C++ of the op kinds the goldens do not hold, its
work per emitted op, and its errors.

``tests/data/linalg_lowering_golden.json`` (``cpp``) and
``tests/data/parallelize_golden.json`` pin the C++ of 216 default, ablation,
baseline and DSE compiles, none of which holds a stream, a copy or an
allocation; ``DIGESTS`` pins one module that does, for each.
"""

import cProfile
import hashlib
import pstats
import re

import pytest

from test_hida_dataflow import three_producer_schedule

from repro.backend import emit_hls_cpp
from repro.backend.hls_cpp_emitter import _cpp_type
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.hida import eliminate_multiple_producers
from repro.ir import Builder, FuncOp, ModuleOp, Operation
from repro.ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    StreamType,
    TensorType,
    TokenType,
    f32,
    i1,
)
from repro.workloads import as_module, list_workloads

#: Workload kind -> (platform, parallelize factor) of the perf ledger's zoo compile.
_LEDGER_TARGETS = {"model": ("vu9p-slr", 64), "kernel": ("zu3eg", 32)}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _balanced_resnet18():
    """resnet18 with balance spending no buffer budget: 17 streams, each
    with one read and one write."""
    spec = DEFAULT_PIPELINE.replace("balance", "balance{budget=0}")
    return Compiler.from_spec(spec).run(workload="resnet18").module


def _three_producers():
    """The three-producer schedule after multi-producer elimination: p3
    copies in the version p2 wrote."""
    func, schedule, _ = three_producer_schedule()
    assert eliminate_multiple_producers(schedule) == 2
    module = ModuleOp.create()
    module.append(func)
    return module


_MODULES = {
    "resnet18 balance{budget=0}": _balanced_resnet18,
    "three producers": _three_producers,
    "2mm frontend": lambda: as_module("2mm"),
}

#: sha256 of each module's C++, recorded before the emitter dispatched by op name.
DIGESTS = {
    "resnet18 balance{budget=0}": "a1591061574db0572a2865f7483f1eec53eff61102c266f87e6b226d46bca2b1",
    "three producers": "ec75620ce69ac98947dd255b01c960dea3b4b8db2b93b98f3648f170c4294c33",
    "2mm frontend": "9f42d11bbd7df4bd77c55e86dc19060085b7fafef36e4163dcea15835d8025ea",
}

#: The op kinds each module is here for.
_KINDS = {
    "resnet18 balance{budget=0}": {"hida.stream", "hida.stream_read", "hida.stream_write"},
    "three producers": {"memref.copy"},
    "2mm frontend": {"memref.alloc"},
}


@pytest.mark.parametrize("case", sorted(_MODULES))
def test_cpp_of_the_kinds_no_golden_holds(case):
    module = _MODULES[case]()
    kinds = {op.name for op in module.walk()}
    assert _KINDS[case] <= kinds
    assert _sha256(emit_hls_cpp(module)) == DIGESTS[case]


def test_stream_counts_of_balanced_resnet18():
    code = emit_hls_cpp(_balanced_resnet18())
    assert code.count("#pragma HLS stream variable=") - code.count("// ping-pong") == 17
    assert code.count(".read();") == 17
    assert code.count(".write(") == 17


class TestEmitWork:
    """Emission costs one handler call per op, looked up by name, and few
    calls besides: the 19 ledger-target final modules (3,479 ops) cost at
    most 20 profiled calls per op, and no emitter function calls
    ``isinstance``."""

    @pytest.fixture(scope="class")
    def profiled(self):
        modules = []
        for kind, (platform, factor) in _LEDGER_TARGETS.items():
            spec = DEFAULT_PIPELINE.replace("parallelize", f"parallelize{{factor={factor}}}")
            for workload in list_workloads(kind=kind):
                compiler = Compiler.from_spec(spec, platform=platform)
                modules.append(compiler.run(workload=workload).module)
        ops = sum(
            1 for module in modules for func in module.functions for op in func.walk()
        ) - sum(len(module.functions) for module in modules)
        profiler = cProfile.Profile()
        profiler.enable()
        for module in modules:
            emit_hls_cpp(module)
        profiler.disable()
        return ops, pstats.Stats(profiler)

    def test_calls_per_emitted_op(self, profiled):
        ops, stats = profiled
        assert ops == 3479
        assert stats.total_calls <= 20 * ops, stats.total_calls / ops

    def test_no_emitter_function_calls_isinstance(self, profiled):
        _, stats = profiled
        callers = set()
        for (path, _, function), stat in stats.stats.items():
            if function == "<built-in method builtins.isinstance>":
                callers |= {caller[0] for caller in stat[4]}
        assert not [path for path in callers if path.endswith("hls_cpp_emitter.py")]


def test_an_unknown_op_is_an_error_naming_it():
    module = ModuleOp.create()
    func = module.append(FuncOp.create("f"))
    Builder.at_end(func.entry_block).insert(Operation(name="test.mystery"))
    with pytest.raises(NotImplementedError, match="test.mystery"):
        emit_hls_cpp(module)


@pytest.mark.parametrize(
    "ty, cpp",
    [
        (f32, "float"),
        (FloatType(16), "half"),
        (FloatType(64), "double"),
        (i1, "bool"),
        (IntegerType(8), "int8_t"),
        (IntegerType(12), "ap_int<12>"),
        (IndexType(), "int"),
        (MemRefType((4, 4), f32), "float"),
        (StreamType(i1, 2), "hls::stream<bool>"),
    ],
)
def test_cpp_type(ty, cpp):
    assert _cpp_type(ty) == cpp


@pytest.mark.parametrize(
    "ty, named",
    [
        (NoneType(), "none"),
        (TokenType(), "token"),
        (TensorType((4,), f32), "tensor<4xf32>"),
        (StreamType(TokenType(), 2), "token"),
    ],
)
def test_a_type_without_cpp_is_an_error_naming_it(ty, named):
    with pytest.raises(TypeError, match=f"no HLS C\\+\\+ type for {re.escape(named)}$"):
        _cpp_type(ty)
