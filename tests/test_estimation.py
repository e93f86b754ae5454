"""Tests for the QoR estimation substrate: platforms, latency/resource models,
the dataflow simulator and evaluation metrics.

``tests/data/qor_payload_golden.json`` pins the ``estimate`` and ``simulate``
payloads of 254 compiles and the records and frontiers of five multi-fidelity
``explore`` runs; it was recorded while the simulate level still re-walked the
IR and every promoted point was recompiled, and is regenerated only on
purpose, with ``PYTHONPATH=src python tests/test_estimation.py --regen``.
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import (
    PYNQ_Z2,
    VU9P_SLR,
    ZU3EG,
    ChannelSpec,
    DesignEstimate,
    QoREstimator,
    ResourceUsage,
    dsp_cost_of_op,
    dsp_efficiency,
    estimate_band,
    estimate_buffer,
    geometric_mean,
    get_platform,
    list_platforms,
    memory_reduction,
    simulate_dataflow,
    speedup,
    throughput_samples_per_second,
)
from repro.baselines import ablation_pipeline_spec
from repro.dialects.arith import AddFOp, MulFOp
from repro.dialects.dataflow import BufferOp
from repro.dialects.memref import AllocOp
from repro.compiler import DEFAULT_PIPELINE, Compiler, default_stages
from repro.dse import build_space, explore
from repro.dse.fidelity import payload
from repro.frontend.cpp import KernelBuilder, build_listing1
from repro.ir import ConstantOp, MemRefType, f32, i8
from repro.transforms.loop_transforms import loop_bands_of, pipeline_loop
from repro.workloads import as_module, list_workloads

PAYLOAD_GOLDEN = pathlib.Path(__file__).parent / "data" / "qor_payload_golden.json"


def compile_unfused_listing1():
    stages = default_stages(drop=["fuse-tasks", "tile"], parallelize={"factor": 8})
    return Compiler(stages, platform="zu3eg").run(build_listing1())


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------


class TestPlatform:
    def test_registry(self):
        assert set(list_platforms()) == {"pynq-z2", "zu3eg", "vu9p-slr"}
        assert get_platform("ZU3EG") is ZU3EG
        with pytest.raises(KeyError):
            get_platform("virtex2")

    def test_relative_sizes(self):
        assert PYNQ_Z2.dsps < ZU3EG.dsps < VU9P_SLR.dsps
        assert PYNQ_Z2.bram_18k < VU9P_SLR.bram_18k

    def test_utilization_metric_is_max(self):
        usage = {"dsp": ZU3EG.dsps / 2, "bram": ZU3EG.bram_18k, "lut": 0}
        assert ZU3EG.max_utilization(usage) == pytest.approx(1.0)
        assert not ZU3EG.fits({"dsp": ZU3EG.dsps * 2})
        assert ZU3EG.fits({"dsp": 1, "bram": 1, "lut": 1})


# ---------------------------------------------------------------------------
# Resource usage arithmetic and op costs
# ---------------------------------------------------------------------------


class TestResources:
    def test_resource_usage_add_and_scale(self):
        a = ResourceUsage(lut=10, ff=20, dsp=3, bram=1)
        b = ResourceUsage(lut=5, dsp=2)
        total = a + b
        assert total.lut == 15 and total.dsp == 5 and total.ff == 20
        assert (a.scaled(2)).bram == 2
        assert set(a.as_dict()) == {"lut", "ff", "dsp", "bram"}

    def test_dsp_cost_depends_on_precision(self):
        a32 = ConstantOp.create(1.0, f32)
        mul32 = MulFOp.create(a32.result(), a32.result())
        assert dsp_cost_of_op(mul32) == 3.0
        a8 = ConstantOp.create(1, i8)
        mul8 = MulFOp.create(a8.result(), a8.result(), result_type=i8)
        assert dsp_cost_of_op(mul8) == 1.0
        add32 = AddFOp.create(a32.result(), a32.result())
        assert dsp_cost_of_op(add32) == 2.0

    def test_buffer_bram_counts_banks_and_depth(self):
        from repro.dialects.hls import ArrayPartition

        buffer = BufferOp.create(MemRefType((128, 128), f32), depth=2)
        base = estimate_buffer(buffer, ZU3EG).bram
        buffer.set_partition(ArrayPartition(["cyclic", "none"], [4, 1]))
        partitioned = estimate_buffer(buffer, ZU3EG).bram
        assert partitioned >= base
        buffer.set_memory_kind("dram")
        assert estimate_buffer(buffer, ZU3EG).bram == 0

    def test_tiny_buffer_maps_to_lutram(self):
        alloc = AllocOp.create(MemRefType((8,), f32))
        usage = estimate_buffer(alloc, ZU3EG)
        assert usage.bram == 0 and usage.lut > 0


# ---------------------------------------------------------------------------
# Band latency model
# ---------------------------------------------------------------------------


def matmul_band(n=16, pipelined=True, unroll=1):
    kb = KernelBuilder("mm")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_inout("C", (n, n))
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        kb.store("C", [i, j], kb.load("C", [i, j]) + kb.load("A", [i, k]) * kb.load("B", [k, j]))
    module = kb.finish()
    band = loop_bands_of(module.functions[0])[0]
    if pipelined:
        pipeline_loop(band[-1])
    if unroll > 1:
        band[0].set_unroll_factor(unroll)
    return module, band


class TestLatencyModel:
    def test_pipelining_reduces_latency(self):
        _, band_seq = matmul_band(pipelined=False)
        seq_latency, _, _ = estimate_band(band_seq, ZU3EG)
        _, band_pipe = matmul_band(pipelined=True)
        pipe_latency, _, _ = estimate_band(band_pipe, ZU3EG)
        assert pipe_latency < seq_latency

    def test_unrolling_reduces_latency_and_adds_dsp(self):
        _, band1 = matmul_band(unroll=1)
        lat1, _, res1 = estimate_band(band1, ZU3EG)
        _, band4 = matmul_band(unroll=4)
        # Partition the output buffer so the unrolled accesses have ports.
        from repro.transforms import partition_buffers_in

        partition_buffers_in(band4[0])
        lat4, _, res4 = estimate_band(band4, ZU3EG)
        assert lat4 < lat1
        assert res4.dsp > res1.dsp

    def test_latency_scales_with_problem_size(self):
        _, small = matmul_band(n=8)
        _, large = matmul_band(n=32)
        assert estimate_band(large, ZU3EG)[0] > estimate_band(small, ZU3EG)[0]


# ---------------------------------------------------------------------------
# Dataflow simulator
# ---------------------------------------------------------------------------


class TestDataflowSimulator:
    def test_balanced_chain_interval_is_max_latency(self):
        latencies = [100.0, 100.0, 100.0]
        channels = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2)]
        interval, latency = simulate_dataflow(latencies, channels, frames=16)
        assert interval == pytest.approx(100.0, rel=0.05)
        assert latency == pytest.approx(300.0, rel=0.05)

    def test_unbalanced_chain_bound_by_slowest(self):
        latencies = [50.0, 400.0, 50.0]
        channels = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2)]
        interval, _ = simulate_dataflow(latencies, channels, frames=16)
        assert interval == pytest.approx(400.0, rel=0.05)

    def test_shortcut_with_shallow_buffer_backpressures(self):
        # 0 -> 1 -> 2 and a shortcut 0 -> 2 with capacity 2: node0 stalls.
        latencies = [100.0, 100.0, 100.0]
        chain = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2), ChannelSpec(0, 2, 2)]
        interval_shallow, _ = simulate_dataflow(latencies, chain, frames=24)
        deep = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2), ChannelSpec(0, 2, 4)]
        interval_deep, _ = simulate_dataflow(latencies, deep, frames=24)
        assert interval_deep <= interval_shallow
        assert interval_deep == pytest.approx(100.0, rel=0.05)

    def test_no_channels_behaves_like_independent_nodes(self):
        interval, latency = simulate_dataflow([10.0, 20.0], [], frames=8)
        assert interval == pytest.approx(20.0, rel=0.05)

    def test_empty_graph(self):
        assert simulate_dataflow([], []) == (1.0, 1.0)

    @given(
        st.lists(st.floats(1.0, 500.0), min_size=1, max_size=6),
        st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_at_least_max_latency(self, latencies, capacity):
        channels = [
            ChannelSpec(i, i + 1, capacity) for i in range(len(latencies) - 1)
        ]
        interval, total = simulate_dataflow(latencies, channels, frames=12)
        assert interval >= max(latencies) * 0.999
        assert total >= max(latencies) * 0.999

    def test_simulate_schedule_end_to_end(self):
        # The estimate stage's graph, simulated with frame-atomic nodes, is
        # the schedule's dataflow estimate.
        result = compile_unfused_listing1()
        assert len(result.graphs) == len(result.schedules) == 1
        graph = result.graphs[0]
        estimates = graph.node_estimates
        interval, latency = simulate_dataflow(
            [e.latency for e in estimates], graph.channels
        )
        assert interval >= max(e.latency for e in estimates) * 0.99
        assert latency >= interval
        assert (latency, interval) == (result.estimate.latency, result.estimate.interval)


# ---------------------------------------------------------------------------
# Whole-design estimation
# ---------------------------------------------------------------------------


class TestDesignEstimation:
    def test_dataflow_beats_sequential_estimate(self):
        result = compile_unfused_listing1()
        estimator = QoREstimator(ZU3EG)
        schedule = result.schedules[0]
        dataflow, graph = estimator.estimate_schedule(schedule, dataflow=True)
        sequential, sequential_graph = estimator.estimate_schedule(schedule, dataflow=False)
        assert dataflow.interval <= sequential.interval
        assert dataflow.throughput >= sequential.throughput
        # The simulation graph does not depend on the overlap model.
        assert graph.channels and sequential_graph == graph

    def test_throughput_formula(self):
        estimate = DesignEstimate(
            resources=ResourceUsage(), latency=1000, interval=500, clock_mhz=200
        )
        assert estimate.throughput == pytest.approx(200e6 / 500)
        assert estimate.latency_seconds == pytest.approx(1000 / 200e6)

    def test_estimate_function_on_plain_kernel(self):
        module = as_module("symm")
        estimator = QoREstimator(ZU3EG)
        estimate = estimator.estimate_function(module.functions[0])
        assert estimate.latency > 0
        assert estimate.resources.lut > 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_dsp_efficiency_equation(self):
        # 100 samples/s, 1e6 MACs, 100 DSPs, 200 MHz -> 0.5% efficiency.
        eff = dsp_efficiency(100, 1e6, 100, 200e6)
        assert eff == pytest.approx(100 * 1e6 / (100 * 200e6))
        assert dsp_efficiency(1, 1, 0, 1) == 0.0

    def test_throughput_and_speedup(self):
        assert throughput_samples_per_second(1000, 100) == pytest.approx(1e5)
        assert speedup(10, 5) == 2
        assert speedup(10, 0) == float("inf")

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([2, 0, 8]) == pytest.approx(4.0)  # ignores zeros

    def test_memory_reduction(self):
        assert memory_reduction(100, 2) == 50
        assert memory_reduction(100, 0) == float("inf")

    @given(st.lists(st.floats(0.1, 1000), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_bounded_by_min_max(self, values):
        mean = geometric_mean(values)
        assert min(values) * 0.999 <= mean <= max(values) * 1.001


# ---------------------------------------------------------------------------
# Payload golden
# ---------------------------------------------------------------------------


def _digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _timeless(record):
    """A payload or record without its wall-clock fields."""
    record = {key: value for key, value in record.items() if key != "eval_seconds"}
    if "summary" in record:
        record["summary"] = {
            key: value
            for key, value in record["summary"].items()
            if key != "compile_seconds"
        }
    return record


def _payload_compiles():
    """(case name, zero-argument compile) of the 254 pinned compiles: the zoo
    under the default, three ablation and the sequential-estimate specs on
    both targets, then the 64-point ``kernel-dse`` sample."""
    specs = {
        "default": DEFAULT_PIPELINE,
        "sequential": DEFAULT_PIPELINE.replace("estimate", "estimate{dataflow=0}"),
    }
    specs.update((mode, ablation_pipeline_spec(mode, 64)) for mode in ("naive", "ia", "ca"))
    for platform in ("vu9p-slr", "zu3eg"):
        for spec_name, spec in specs.items():
            for workload in list_workloads():
                compiler = Compiler.from_spec(spec, platform=platform)
                yield f"{spec_name}/{platform}/{workload}", functools.partial(
                    compiler.run, workload=workload
                )
    for point in build_space("full").sample(64, 2024):
        yield f"dse/{point.label()}", functools.partial(
            point.compiler().run, workload=point.workload_spec()
        )


def _payload_record(result):
    return {
        level: _digest(_timeless(payload(level, result)))
        for level in ("estimate", "simulate")
    }


def _explore_runs(cache_dir):
    """(run name, result) of the five pinned multi-fidelity runs over the
    ``kernel-dse`` sample, the warm one replaying the cold one's cache."""
    points = build_space("full").sample(64, 2024)
    common = {"fidelity": "simulate", "promote_top": 0.25}
    yield "uncached", explore(points, use_cache=False, **common)
    yield "cold", explore(points, cache_dir=cache_dir, **common)
    yield "warm", explore(points, cache_dir=cache_dir, **common)
    yield "workers=2", explore(points, use_cache=False, workers=2, **common)
    yield "genetic", explore(
        points, use_cache=False, strategy="genetic", budget=32, seed=0, **common
    )


def _explore_record(result):
    return {
        "records": _digest([_timeless(r) for r in result.records]),
        "frontier": _digest([_timeless(r) for r in result.frontier]),
    }


def test_payload_golden():
    golden = json.loads(PAYLOAD_GOLDEN.read_text())["compiles"]
    actual = {name: _payload_record(run()) for name, run in _payload_compiles()}
    assert len(actual) == 254
    assert sorted(actual) == sorted(golden)
    differing = [
        f"{name}: {level}"
        for name, record in golden.items()
        for level, value in record.items()
        if actual[name][level] != value
    ]
    assert differing == []


def test_explore_golden(tmp_path):
    golden = json.loads(PAYLOAD_GOLDEN.read_text())["explore"]
    actual = {name: _explore_record(result) for name, result in _explore_runs(str(tmp_path))}
    assert actual == golden


def _regenerate_golden():
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        golden = {
            "compiles": {name: _payload_record(run()) for name, run in _payload_compiles()},
            "explore": {
                name: _explore_record(result) for name, result in _explore_runs(cache_dir)
            },
        }
    PAYLOAD_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['compiles'])} compiles to {PAYLOAD_GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_estimation.py --regen")
    _regenerate_golden()
