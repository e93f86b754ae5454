"""Differential soundness of the static analyzer.

The analyzer's contract is enforced against the measurement oracle from
two sides:

* every design the ``deadlock`` rule flags must actually stall in
  :func:`~repro.estimation.dataflow_sim.simulate_dataflow` (no false
  alarms that the simulator would disprove), and
* no design the workload zoo produces — under the default pipeline or any
  Figure-11 ablation variant — may be flagged with an error-severity
  finding (no false positives on known-good designs).

Plus the DSE pre-filter guarantees: statically rejected points never
consume budget, and the records of feasible points are byte-identical to
an unfiltered run on the same seed.
"""

import pytest

from repro.analysis import analyze_module, legal_unroll, pipeline_rec_mii
from repro.baselines.ablation import ABLATION_MODES, ablation_pipeline_spec
from repro.compiler import Compiler
from repro.compiler.driver import DEFAULT_PIPELINE, PipelineObserver
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.dse.runner import explore
from repro.dse.space import build_space
from repro.estimation.dataflow_sim import build_channels, simulate_dataflow
from repro.estimation.qor import SIMULATION_FRAMES, _band_chain, _estimate_node, estimate_band
from repro.estimation.platform import get_platform
from repro.transforms.loop_transforms import loop_bands_of
from repro.workloads import iter_workloads

from test_analysis import (
    _lowered_kernel,
    _recurrence_kernel,
    _schedule_loops,
    cycle_module,
)

STALL = 1.0 + 1e-6


def _whole_graph_interval(schedule) -> float:
    """Unit-latency steady-state interval of the full channel graph."""
    nodes, channels = build_channels(schedule)
    interval, _ = simulate_dataflow([1.0] * len(nodes), channels, frames=32)
    return interval


@pytest.mark.parametrize(
    "caps", [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (8, 8)]
)
def test_deadlock_flag_agrees_with_the_simulator(caps):
    module, schedule = cycle_module(*caps)
    flagged = bool(analyze_module(module, only=["deadlock"]).errors)
    stalls = _whole_graph_interval(schedule) > STALL
    # Soundness: flagged => stalls.  On these pure-cycle designs the
    # converse holds too, which pins the rule as exact, not just safe.
    assert flagged == stalls


def test_flagged_cycle_embedded_in_larger_graph_still_stalls():
    from repro.dialects.dataflow import NodeOp
    from repro.ir import Builder

    from test_analysis import _make_buffer

    module, schedule = cycle_module(1, 1)
    builder = Builder.at_end(schedule.body)
    tail_buf = _make_buffer(builder, depth=2, name="post")
    # Grow a well-buffered chain downstream of the starved cycle.
    builder.insert(
        NodeOp.create(inputs=[tail_buf.result()], label="sink")
    )
    assert analyze_module(module, only=["deadlock"]).errors
    assert _whole_graph_interval(schedule) > STALL


def _zoo_specs():
    specs = [("default", DEFAULT_PIPELINE)]
    specs.extend(
        (mode, ablation_pipeline_spec(mode, max_parallel_factor=8))
        for mode in ABLATION_MODES
    )
    return specs


def test_no_clean_zoo_design_is_flagged():
    """Zero error-severity findings across every workload x pipeline."""
    offenders = []
    for handle in iter_workloads():
        for mode, spec in _zoo_specs():
            result = Compiler.from_spec(spec, platform="vu9p-slr").run(
                workload=handle
            )
            report = analyze_module(result.module, platform="vu9p-slr")
            offenders.extend(
                f"{handle.label()}[{mode}]: {finding}"
                for finding in report.errors
            )
    assert not offenders, "\n".join(offenders)


def test_rec_mii_is_a_sound_bound_across_the_zoo():
    """rec-MII never exceeds what the simulator measures, zoo-wide.

    Three pins per workload x pipeline: every pipelined loop's directive II
    has been clamped up to its recurrence bound (the parallelize pass
    consulted the engine); the bound parallelize handed the estimator for
    each loop is the one a fresh query gives, and covers every pipelined
    loop; and every dataflow node's frame-accurate initiation interval is
    at least the recurrence bound of its pipelined loops (the static bound
    is sound against the measurement oracle).
    """
    platform = get_platform("vu9p-slr")
    checked_loops = checked_nodes = 0

    class Handed(PipelineObserver):
        def on_stage_start(self, stage, state):
            if stage.name == "estimate":
                self.rec_mii = dict(state.rec_mii)

    for handle in iter_workloads():
        for mode, spec in _zoo_specs():
            handed = Handed()
            result = Compiler.from_spec(spec, platform="vu9p-slr", observers=[handed]).run(
                workload=handle
            )
            where = f"{handle.label()}[{mode}]"
            for loop in result.module.walk():
                if not isinstance(loop, AffineForOp) or not loop.is_pipelined:
                    continue
                rec_mii = pipeline_rec_mii(loop)
                assert loop.target_ii >= rec_mii, (
                    f"{where}: pipelined loop claims II={loop.target_ii} "
                    f"below its rec-MII {rec_mii}"
                )
                assert handed.rec_mii.pop(loop, None) == rec_mii, (
                    f"{where}: the estimator was handed a rec-MII other than "
                    f"a fresh query's {rec_mii}"
                )
                checked_loops += 1
            assert handed.rec_mii == {}, f"{where}: a handed loop is not pipelined"
            for schedule in result.schedules:
                nodes, _ = build_channels(schedule)
                for node in nodes:
                    rec_mii = max(
                        (
                            pipeline_rec_mii(loop)
                            for loop in node.walk()
                            if isinstance(loop, AffineForOp)
                            and loop.is_pipelined
                        ),
                        default=1,
                    )
                    if rec_mii <= 1:
                        continue
                    band_latencies = _estimate_node(node, platform)[1]
                    _, interval = _band_chain(band_latencies, SIMULATION_FRAMES)
                    assert interval >= rec_mii, (
                        f"{where}: node {node.label!r} simulates at "
                        f"interval {interval} below rec-MII {rec_mii}"
                    )
                    checked_nodes += 1
    assert checked_loops > 0  # the sweep actually exercised the bound


def test_flagged_race_is_a_real_serialization():
    """A ``loop-carried-race`` finding means the claimed rate is not real:
    the estimator charges the full recurrence II despite the directive, so
    claiming the honest bound costs nothing."""
    module = _lowered_kernel(_recurrence_kernel)
    loop = _schedule_loops(module)[0]
    loop.set_pipeline(True, 1)
    report = analyze_module(module, only=["loop-carried-race"])
    assert report.errors
    rec_mii = report.errors[0].data["rec_mii"]
    assert rec_mii > loop.target_ii
    platform = get_platform("vu9p-slr")
    latency_claimed, _, _ = estimate_band([loop], platform)
    # The optimistic directive did not buy the claimed rate ...
    assert latency_claimed >= loop.trip_count * rec_mii
    # ... and the honest claim is exactly as fast, with no finding.
    loop.set_pipeline(True, rec_mii)
    latency_honest, _, _ = estimate_band([loop], platform)
    assert latency_honest == latency_claimed
    assert not analyze_module(module, only=["loop-carried-race"]).errors


def _recurrence_source(distance, trip=16):
    from repro.frontend.cpp import KernelBuilder

    kb = KernelBuilder("rec")
    kb.add_input("B", (trip,))
    kb.add_inout("A", (trip,))
    with kb.loop("i", trip) as i:
        kb.store("A", [i], kb.load("A", [i - distance]) + kb.load("B", [i]))
    return kb.finish()


def _replay_groups(loop, group):
    """Execute ``loop`` with ``group`` iterations issued per cycle.

    Addresses come from evaluating each access's affine map at concrete IV
    values; an unrolled group issues all of its loads before any of its
    stores, which is exactly the reordering ``legal_unroll`` reasons about.
    Returns the final memory image of every buffer.
    """
    loads = [op for op in loop.walk() if isinstance(op, AffineLoadOp)]
    store = next(op for op in loop.walk() if isinstance(op, AffineStoreOp))
    memories = {}

    def memory_of(buffer):
        if id(buffer) not in memories:
            seed = 100.0 * (len(memories) + 1)
            memories[id(buffer)] = [
                seed + index for index in range(buffer.type.num_elements)
            ]
        return memories[id(buffer)]

    def address(op, iv):
        dims = [iv for _ in op.index_operands]
        return int(op.access_map.evaluate(dims)[0])

    def read(op, iv):
        cells = memory_of(op.memref)
        addr = address(op, iv)
        return cells[addr] if 0 <= addr < len(cells) else 0.0

    ivs = [
        loop.lower_bound + k * loop.step for k in range(loop.trip_count)
    ]
    for start in range(0, len(ivs), group):
        burst = ivs[start : start + group]
        pending = [
            (iv, sum(read(op, iv) for op in loads)) for iv in burst
        ]
        for iv, value in pending:
            memory_of(store.memref)[address(store, iv)] = value
    return [tuple(cells) for cells in memories.values()]


@pytest.mark.parametrize(
    "distance,factor", [(1, 4), (2, 2), (2, 4), (4, 4)]
)
def test_unroll_legality_matches_ordering_replay(distance, factor):
    """``legal_unroll`` verdicts agree with ground truth: a concrete replay
    of the unrolled issue order diverges from sequential execution exactly
    when the verdict is illegal."""
    loop = loop_bands_of(
        _recurrence_source(distance).functions[0]
    )[0][0]
    verdict = bool(legal_unroll(loop, factor))
    sequential = _replay_groups(loop, 1)
    grouped = _replay_groups(loop, factor)
    assert verdict == (grouped == sequential)


def _strip_timing(records):
    """Copies of ``records`` with the wall-clock-dependent fields removed."""
    cleaned = []
    for record in records:
        record = dict(record)
        record.pop("eval_seconds", None)
        if isinstance(record.get("summary"), dict):
            summary = dict(record["summary"])
            summary.pop("compile_seconds", None)
            record["summary"] = summary
        cleaned.append(record)
    return cleaned


def test_dse_prefilter_rejects_without_perturbing_feasible_points(tmp_path):
    # The pipeline-spec axis crafts an infeasible family: a spec with no
    # estimate stage can never produce a QoR record.
    space = build_space(
        "small",
        suite=["2mm"],
        platforms=("zu3eg",),
        pipeline_specs=(None, "construct-dataflow,lower-structural,parallelize"),
    )
    kwargs = dict(cache_dir=str(tmp_path / "qor"), workers=1)
    base = explore(space, use_cache=False, **kwargs)
    filtered = explore(space, use_cache=False, prefilter=True, **kwargs)

    # The crafted axis is rejected statically, with the reason recorded.
    assert filtered.rejected, "expected at least one statically rejected point"
    assert {r["reason"] for r in filtered.rejected} == {"no-estimate"}
    rejected_keys = {r["point_key"] for r in filtered.rejected}

    # The pre-filter predicted exactly the points that error out when run.
    base_errors = {
        r["point_key"] for r in base.records if "error" in r
    }
    assert rejected_keys == base_errors

    # Feasible records are byte-identical (timing aside) and the frontier
    # is unchanged: rejection consumed no budget and perturbed nothing.
    base_ok = [r for r in base.records if r["point_key"] not in rejected_keys]
    filtered_ok = [r for r in filtered.records if "error" not in r]
    assert _strip_timing(filtered_ok) == _strip_timing(base_ok)
    assert filtered.frontier_keys() == base.frontier_keys()
    assert filtered.summary()["rejected"] == float(len(rejected_keys))
    assert base.summary()["rejected"] == 0.0


def test_dse_prefilter_is_deterministic_with_adaptive_search(tmp_path):
    space = build_space(
        "small",
        suite=["2mm"],
        platforms=("zu3eg",),
        pipeline_specs=(None, "construct-dataflow,lower-structural,parallelize"),
    )
    runs = [
        explore(
            space,
            use_cache=False,
            cache_dir=str(tmp_path / f"qor{i}"),
            workers=1,
            strategy="random",
            budget=6,
            seed=11,
            prefilter=True,
        )
        for i in range(2)
    ]
    assert runs[0].frontier_keys() == runs[1].frontier_keys()
    assert [r["point_key"] for r in runs[0].rejected] == [
        r["point_key"] for r in runs[1].rejected
    ]
    # Budget counts evaluated designs only; rejections ride for free.
    evaluated = {r["point_key"] for r in runs[0].records}
    assert len(evaluated) <= 6
    assert evaluated.isdisjoint(r["point_key"] for r in runs[0].rejected)
