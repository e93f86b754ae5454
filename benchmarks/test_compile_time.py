"""Compile-time benchmarks (the compile-time columns of Tables 7 and 8).

The paper highlights HIDA's seconds-to-minutes compile times against hours
of manual tuning, so each test here runs one compile-path call and checks
its result.  Wall-clock cost is judged by the perf ledger
(``benchmarks/perf/bench.py``), which CI runs on a change and on its parent
and compares with ``bench.py compare``.
"""

import pytest

from repro.compiler import Compiler, default_stages
from repro.ir.printer import fingerprint_op, print_op
from repro.workloads import as_module, get_workload


@pytest.mark.parametrize("kernel", ["2mm", "atax", "correlation"])
def test_compile_time_cpp_kernel(kernel):
    result = Compiler(default_stages(drop=["tile"]), platform="zu3eg").run(workload=kernel)
    assert result.throughput > 0


@pytest.mark.parametrize("model", ["lenet", "resnet18", "mobilenet"])
def test_compile_time_dnn_model(model):
    result = Compiler(default_stages(parallelize={"factor": 64})).run(workload=model)
    assert result.throughput > 0
    # The paper reports an average of ~109 s per model with Vitis HLS in the
    # loop; the pure compiler pass pipeline must stay well under that.
    assert result.compile_seconds < 120


def test_compile_time_reference_interpreter():
    """Execute a compiled zoo kernel under the reference interpreter.

    Translation validation runs the interpreter once per stage boundary, so
    its wall-clock cost on an interpreter-sized kernel bounds the overhead
    of ``--validate`` and the exec-verify pass of the IR snapshot cache.
    The ledger's ``validate`` workload, which the interpreter dominates,
    holds that cost.
    """
    from repro.ir.interp import interpret_module

    result = interpret_module(as_module(get_workload("2mm").at(n=8)))
    assert result.ops_executed > 0
    assert result.oob_reads == result.oob_writes == 0


def test_compile_time_telemetry_disabled():
    """Full-pipeline compile with telemetry off.

    Every compiler/DSE/simulator hot path is instrumented through
    ``repro.obs``, whose disabled mode must cost essentially nothing (a
    single module-global check per call site).  This test compiles a kernel
    through the instrumented pipeline with telemetry explicitly disabled and
    checks that it stays disabled.  The cost of disabled mode is guarded by
    the ledger's untraced ``zoo-compile`` runs, which CI judges against the
    parent commit's.
    """
    from repro import obs

    obs.shutdown()
    assert not obs.enabled()

    result = Compiler(default_stages(), platform="zu3eg").run(workload="atax")
    assert result.throughput > 0
    assert not obs.enabled()


def test_print_and_fingerprint_largest_model():
    """Print + content-hash the largest zoo model (the IR-cache hot path).

    Analysis caching, the IR snapshot cache and QoR-cache keys all funnel
    through ``print_op``/``fingerprint_op``, so their cost on the biggest
    module in the zoo is a first-class number.  The walk fingerprints every
    nested op — the access pattern of a module-wide analysis sweep.
    """
    module = as_module("mobilenet")  # largest zoo model by printed IR

    text = print_op(module)
    digests = [fingerprint_op(op) for op in module.walk()]
    assert len(text.splitlines()) > 100
    assert len(digests) == len(set(id(op) for op in module.walk()))
    assert fingerprint_op(module) in digests
