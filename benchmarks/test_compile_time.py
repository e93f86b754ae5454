"""Compile-time benchmarks (the compile-time columns of Tables 7 and 8).

These use pytest-benchmark's timing machinery directly: the paper highlights
HIDA's seconds-to-minutes compile times against hours of manual tuning, so
the wall-clock cost of the compiler itself is a first-class result.
"""

import pytest

from repro.compiler import Compiler, default_stages
from repro.ir.printer import fingerprint_op, print_op
from repro.workloads import as_module, get_workload


@pytest.mark.parametrize("kernel", ["2mm", "atax", "correlation"])
def test_compile_time_cpp_kernel(benchmark, kernel):
    def run():
        return Compiler(default_stages(drop=["tile"]), platform="zu3eg").run(
            workload=kernel
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.throughput > 0


@pytest.mark.parametrize("model", ["lenet", "resnet18", "mobilenet"])
def test_compile_time_dnn_model(benchmark, model):
    def run():
        return Compiler(default_stages(parallelize={"factor": 64})).run(workload=model)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.throughput > 0
    # The paper reports an average of ~109 s per model with Vitis HLS in the
    # loop; the pure compiler pass pipeline must stay well under that.
    assert result.compile_seconds < 120


def test_compile_time_reference_interpreter(benchmark):
    """Execute a compiled zoo kernel under the reference interpreter.

    Translation validation runs the interpreter once per stage boundary, so
    its wall-clock cost on an interpreter-sized kernel bounds the overhead
    of ``--validate`` and the exec-verify pass of the IR snapshot cache.
    Tracked by the perf-trend gate alongside the compile-time numbers.
    """
    from repro.ir.interp import interpret_module

    module = as_module(get_workload("2mm").at(n=8))

    def run():
        return interpret_module(module)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.ops_executed > 0
    assert result.oob_reads == result.oob_writes == 0


def test_compile_time_telemetry_disabled(benchmark):
    """Full-pipeline compile with telemetry off — the overhead guard.

    Every compiler/DSE/simulator hot path is now instrumented through
    ``repro.obs``, whose disabled mode must cost essentially nothing (a
    single module-global check per call site).  This benchmark compiles a
    kernel through the instrumented pipeline with telemetry explicitly
    disabled; the perf-trend gate compares it (and the plain compile-time
    benchmarks, whose baseline predates the instrumentation) against
    ``BENCH_baseline.json``, so a disabled-mode overhead regression beyond
    the +25% threshold fails CI.  The CI job passes ``--require telemetry``
    to :mod:`benchmarks.trend` so this guard cannot silently drop out.
    """
    from repro import obs

    obs.shutdown()
    assert not obs.enabled()

    def run():
        return Compiler(default_stages(), platform="zu3eg").run(workload="atax")

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.throughput > 0
    assert not obs.enabled()


def test_print_and_fingerprint_largest_model(benchmark):
    """Print + content-hash the largest zoo model (the IR-cache hot path).

    Analysis caching, the IR snapshot cache and QoR-cache keys all funnel
    through ``print_op``/``fingerprint_op``, so their cost on the biggest
    module in the zoo is a first-class number.  The walk fingerprints every
    nested op — the access pattern of a module-wide analysis sweep.
    """
    module = as_module("mobilenet")  # largest zoo model by printed IR

    def run():
        text = print_op(module)
        digests = [fingerprint_op(op) for op in module.walk()]
        return text, digests

    text, digests = benchmark.pedantic(run, rounds=5, iterations=2)
    assert len(text.splitlines()) > 100
    assert len(digests) == len(set(id(op) for op in module.walk()))
    assert fingerprint_op(module) in digests
