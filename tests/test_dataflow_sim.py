"""Tests of the coarse-grained dataflow simulator
(:mod:`repro.estimation.dataflow_sim`).

The simulator is the expensive fidelity of the DSE subsystem, so its
behavioral contract matters: topological ordering must be stable under
channel permutations, capacity-1 channels must serialize producer and
consumer (back-pressure), repeated simulations of the same schedule must be
bit-identical, and where the analytic estimator draws a clear ordering
between designs the simulation must agree.
"""

import collections
import itertools
import json
import pathlib
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ABLATION_MODES, ablation_pipeline_spec
from repro.compiler import DEFAULT_PIPELINE, Compiler, PipelineObserver
from repro.dialects.dataflow import (
    BufferOp,
    NodeOp,
    ScheduleOp,
    StreamOp,
    get_consumers,
    get_producers,
)
from repro.dse import build_space, explore, polybench_suite
from repro.ir import Builder, FuncOp, MemRefType, f32
from repro.ir.builtin import ReturnOp
from repro.estimation import (
    ChannelSpec,
    build_channels,
    simulate_dataflow,
    simulate_design,
    simulate_graphs,
)
from repro.estimation.dataflow_sim import (
    _schedule_frames,
    _topological_order,
    channel_depths,
)
from repro.workloads import as_module, list_workloads


def _run(workload="2mm"):
    compiler = Compiler.from_spec(
        "construct-dataflow,lower-linalg,lower-structural,parallelize,estimate",
        platform="zu3eg",
    )
    return compiler.run(as_module(workload))


# ------------------------------------------------------------- topo order
def test_topological_order_is_stable_under_channel_permutations():
    channels = [
        ChannelSpec(0, 2),
        ChannelSpec(1, 2),
        ChannelSpec(2, 3),
        ChannelSpec(0, 1),
    ]
    baseline = _topological_order(4, channels)
    assert baseline == [0, 1, 2, 3]
    for permutation in itertools.permutations(channels):
        assert _topological_order(4, list(permutation)) == baseline
        # Duplicate edges are ignored, not double-counted.
        assert _topological_order(4, list(permutation) * 2) == baseline


def test_topological_order_cycles_fall_back_to_program_order():
    channels = [ChannelSpec(0, 1), ChannelSpec(1, 0)]
    order = _topological_order(2, channels)
    assert sorted(order) == [0, 1]
    # A cycle plus a downstream node: the acyclic part still sorts first.
    channels = [ChannelSpec(0, 1), ChannelSpec(1, 0), ChannelSpec(1, 2)]
    order = _topological_order(3, channels)
    assert order[-1] != 0 or len(order) == 3


# ---------------------------------------------------------- back-pressure
def test_capacity_one_channel_serializes_producer_and_consumer():
    # With one slot the producer must wait for the consumer to drain each
    # frame: steady interval = sum of latencies.  Two ping-pong stages
    # decouple them: steady interval = the slower node.
    serial, _ = simulate_dataflow([10.0, 10.0], [ChannelSpec(0, 1, 1)])
    pingpong, _ = simulate_dataflow([10.0, 10.0], [ChannelSpec(0, 1, 2)])
    assert serial == 20.0
    assert pingpong == 10.0


def test_shortcut_channel_back_pressures_a_deep_path():
    # A 2-deep shortcut next to a 3-node chain (the ResNet residual shape):
    # the shortcut holds frames while the long path drains, throttling the
    # producer.  Deepening the shortcut restores full pipelining.
    chain = [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2)]
    shallow, _ = simulate_dataflow([10.0, 10.0, 10.0], chain + [ChannelSpec(0, 2, 2)])
    deep, _ = simulate_dataflow([10.0, 10.0, 10.0], chain + [ChannelSpec(0, 2, 4)])
    assert shallow > deep
    assert deep == 10.0


def test_single_frame_latency_is_the_critical_path():
    _, latency = simulate_dataflow(
        [5.0, 7.0, 3.0], [ChannelSpec(0, 1, 2), ChannelSpec(1, 2, 2)]
    )
    assert latency == 15.0


def test_internal_intervals_unlock_frame_pipelining():
    # Frame-atomic (no intervals): a node admits one frame per own latency.
    atomic, _ = simulate_dataflow([12.0], [])
    # Internally pipelined at II=4: the same node admits frames 3x faster.
    pipelined, _ = simulate_dataflow([12.0], [], intervals=[4.0])
    assert atomic == 12.0
    assert pipelined == 4.0
    # Channel capacity still back-pressures pipelined nodes: a 2-deep
    # channel holds only 2 in-flight frames of the 12-cycle producer, so
    # the pipeline cannot reach the 4-cycle internal rate until the
    # channel deepens.
    shallow, _ = simulate_dataflow(
        [12.0, 4.0], [ChannelSpec(0, 1, 2)], intervals=[4.0, 4.0]
    )
    deep, _ = simulate_dataflow(
        [12.0, 4.0], [ChannelSpec(0, 1, 8)], intervals=[4.0, 4.0], frames=32
    )
    assert deep == 4.0
    assert 4.0 < shallow < 12.0


# ------------------------------------------------------- the recurrence
def _reference_schedule_frames(latencies, channels, frames, intervals):
    """The firing recurrence as it read with one ``max`` per edge, kept as
    the reference the simulator's inline comparisons are held to."""
    num_nodes = len(latencies)
    preds = {i: [] for i in range(num_nodes)}
    succs = {i: [] for i in range(num_nodes)}
    for channel in channels:
        preds[channel.consumer].append(channel)
        succs[channel.producer].append(channel)
    order = _topological_order(num_nodes, channels)
    finish = [[0.0] * num_nodes for _ in range(frames)]
    start = [[0.0] * num_nodes for _ in range(frames)]
    for frame in range(frames):
        for node in order:
            earliest = 0.0
            if frame > 0:
                prior = (
                    finish[frame - 1][node]
                    if intervals is None
                    else start[frame - 1][node] + max(intervals[node], 1.0)
                )
                earliest = max(earliest, prior)
            for channel in preds[node]:
                earliest = max(earliest, finish[frame][channel.producer])
            for channel in succs[node]:
                waiting_frame = frame - channel.capacity
                if waiting_frame >= 0:
                    earliest = max(earliest, finish[waiting_frame][channel.consumer])
            start[frame][node] = earliest
            finish[frame][node] = earliest + max(latencies[node], 1.0)
    return start, finish


def _bits(rows):
    """Each float's IEEE-754 bytes: equal exactly when bitwise equal, NaN too."""
    return [struct.pack(f"{len(row)}d", *row) for row in rows]


_times = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 3.0, 12.0]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), frames=st.integers(4, 9), pipelined=st.booleans())
def test_schedule_frames_is_bitwise_the_max_recurrence(data, frames, pipelined):
    num_nodes = data.draw(st.integers(1, 7))
    node = st.integers(0, num_nodes - 1)
    channels = [
        ChannelSpec(producer, consumer, capacity)
        for producer, consumer, capacity in data.draw(
            st.lists(st.tuples(node, node, st.integers(0, 5)), max_size=14)
        )
    ]
    latencies = data.draw(st.lists(_times, min_size=num_nodes, max_size=num_nodes))
    intervals = (
        data.draw(st.lists(_times, min_size=num_nodes, max_size=num_nodes))
        if pipelined
        else None
    )
    start, finish = _schedule_frames(latencies, channels, frames, intervals)
    expected_start, expected_finish = _reference_schedule_frames(
        latencies, channels, frames, intervals
    )
    assert _bits(start) == _bits(expected_start)
    assert _bits(finish) == _bits(expected_finish)


# ------------------------------------------------------------ determinism
def test_simulate_schedule_is_deterministic():
    first = _run("2mm")
    second = _run("2mm")
    for result in (first, second):
        assert result.schedules
        assert len(result.graphs) == len(result.schedules)
    outcomes = [
        simulate_graphs(result.graphs, result.estimate, frames=48)
        for result in (first, second)
    ]
    assert outcomes[0] == outcomes[1]
    # Re-simulating the *same* graphs is bit-identical too, and so is
    # simulating graphs rebuilt from the schedules' IR.
    repeat = [simulate_graphs(first.graphs, first.estimate) for _ in range(3)]
    repeat.append(simulate_design(first.schedules, first.estimate, first.platform))
    assert all(outcome == outcomes[0] for outcome in repeat)


def test_build_channels_matches_schedule_structure():
    result = _run("2mm")
    nodes, channels = build_channels(result.schedules[0])
    assert len(nodes) == len(result.schedules[0].nodes)
    # The estimate stage's graph carries the same channels, in the same order.
    assert result.graphs[0].channels == channels
    for channel in channels:
        assert 0 <= channel.producer < len(nodes)
        assert 0 <= channel.consumer < len(nodes)
        assert channel.capacity >= 1


# ------------------------------------- agreement with the analytic model
def test_simulation_agrees_with_analytic_ordering_on_clear_gaps(tmp_path):
    # Where the analytic estimator separates two designs of the same
    # workload by more than 1.5x in latency, the simulator must rank them
    # the same way — fidelity refines near-ties, it does not contradict
    # clear wins.  (Pinned on the 2mm medium space; 100+ such pairs.)
    space = build_space(
        "medium", suite=[s for s in polybench_suite() if s.name == "2mm"]
    )
    estimate = explore(space, cache_dir=str(tmp_path))
    simulate = explore(
        space, cache_dir=str(tmp_path), fidelity="simulate", promote_top=1.0
    )
    analytic = {
        r["point_key"]: r["summary"]["latency_cycles"]
        for r in estimate.records
        if "error" not in r
    }
    simulated = {
        r["point_key"]: r["summary"]["latency_cycles"]
        for r in simulate.records
        if "error" not in r and r.get("fidelity") == "simulate"
    }
    assert set(simulated) == set(analytic)
    checked = 0
    for a, b in itertools.combinations(sorted(analytic), 2):
        low, high = sorted((analytic[a], analytic[b]))
        if high / max(low, 1.0) <= 1.5:
            continue
        checked += 1
        assert (analytic[a] < analytic[b]) == (simulated[a] < simulated[b])
    assert checked >= 50  # the property is exercised, not vacuous


# --------------------------------------------------- cycle decomposition
def test_channel_cycles_finds_cyclic_sccs():
    from repro.estimation.dataflow_sim import channel_cycles

    # Two disjoint cycles plus an acyclic tail; duplicate channels and
    # self-contained DAG edges must not perturb the decomposition.
    channels = [
        ChannelSpec(0, 1),
        ChannelSpec(1, 0),
        ChannelSpec(1, 0),  # duplicate edge
        ChannelSpec(2, 3),
        ChannelSpec(3, 4),
        ChannelSpec(4, 2),
        ChannelSpec(4, 5),  # tail out of the second cycle
    ]
    assert channel_cycles(6, channels) == [[0, 1], [2, 3, 4]]
    # Acyclic graphs decompose into nothing (single nodes are not cycles).
    assert channel_cycles(3, [ChannelSpec(0, 1), ChannelSpec(1, 2)]) == []
    assert channel_cycles(0, []) == []


@st.composite
def _channel_graphs(draw):
    """Up to 8 nodes and 0-20 channels, duplicates and self channels included."""
    num_nodes = draw(st.integers(0, 8))
    if not num_nodes:
        return 0, []
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=20))
    return num_nodes, [ChannelSpec(producer, consumer) for producer, consumer in edges]


def _mutual_reachability_classes(num_nodes, channels):
    """Classes of nodes that reach each other by a path of >= 1 edges, of size
    > 1, sorted, ordered by smallest member: a boolean Warshall closure."""
    reach = [[False] * num_nodes for _ in range(num_nodes)]
    for channel in channels:
        reach[channel.producer][channel.consumer] = True
    for k in range(num_nodes):
        for i in range(num_nodes):
            if reach[i][k]:
                for j in range(num_nodes):
                    reach[i][j] = reach[i][j] or reach[k][j]
    classes = []
    for i in range(num_nodes):
        members = [i] + [j for j in range(num_nodes) if j != i and reach[i][j] and reach[j][i]]
        if len(members) > 1 and min(members) == i:
            classes.append(sorted(members))
    return classes


@settings(max_examples=300, deadline=None)
@given(graph=_channel_graphs())
def test_channel_cycles_are_the_mutual_reachability_classes(graph):
    from repro.estimation.dataflow_sim import channel_cycles

    num_nodes, channels = graph
    assert channel_cycles(num_nodes, channels) == _mutual_reachability_classes(
        num_nodes, channels
    )


# ------------------------------------------------------------ graph golden
# ``tests/data/dataflow_graph_golden.json`` holds, for every zoo workload and
# every schedule in it, the channel list, the node depths and each buffer's
# producers / consumers (as node positions) — once right after
# ``lower-structural`` (multi-producer buffers still present) and once after
# the whole default pipeline.  Recorded with the pre-PR-23 scans (every node
# asked about every schedule argument); regenerate only on purpose, with
# ``PYTHONPATH=src python tests/test_dataflow_sim.py --regen``.

_GRAPH_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "dataflow_graph_golden.json"
_GRAPH_SPECS = {
    "structural": "construct-dataflow,fuse-tasks,lower-linalg,lower-structural",
    "final": (
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        "eliminate-multi-producers,balance,tile,parallelize"
    ),
}


def _graph_rows(workload):
    rows = {}
    for point, spec in _GRAPH_SPECS.items():
        state = Compiler.from_spec(spec, platform="zu3eg").run_stages(workload=workload)
        schedules = []
        for schedule in state.module.walk_ops(ScheduleOp):
            nodes, channels = build_channels(schedule)
            position = {id(node): i for i, node in enumerate(nodes)}
            schedules.append(
                {
                    "channels": [[c.producer, c.consumer, c.capacity] for c in channels],
                    "depths": channel_depths(len(nodes), channels),
                    "buffers": [
                        [
                            [position.get(id(n), -1) for n in get_producers(op.result())],
                            [position.get(id(n), -1) for n in get_consumers(op.result())],
                        ]
                        for op in schedule.body.operations
                        if isinstance(op, BufferOp)
                    ],
                }
            )
        rows[point] = schedules
    return rows


@pytest.mark.parametrize("workload", list_workloads())
def test_dataflow_graph_golden(workload):
    golden = json.loads(_GRAPH_GOLDEN_PATH.read_text())[workload]
    assert _graph_rows(workload) == golden


# ------------------------------------------------ channels from use lists
def _reference_channels(schedule):
    """The channel graph asked of ``get_producers`` / ``get_consumers``, one
    buffer and one schedule argument at a time: :func:`build_channels` must
    equal it, node list and channel list alike."""
    nodes = schedule.nodes
    index_of = {id(node): i for i, node in enumerate(nodes)}
    channels = []

    def add_channel(producer, consumer, capacity, forward_only=False):
        p, c = index_of.get(id(producer)), index_of.get(id(consumer))
        if p is None or c is None or p == c or (forward_only and p > c):
            return
        channels.append(ChannelSpec(p, c, capacity))

    for op in schedule.body.operations:
        if isinstance(op, BufferOp):
            value = op.result()
            consumers = get_consumers(value)
            for producer in get_producers(value):
                for consumer in consumers:
                    if producer is not consumer:
                        add_channel(producer, consumer, max(op.depth, 1))
        elif isinstance(op, StreamOp):
            value = op.result()
            users = [u for u in value.users if isinstance(u, NodeOp)]
            for producer in [u for u in users if u.writes(value)]:
                for consumer in [u for u in users if u.reads(value)]:
                    if producer is not consumer:
                        add_channel(producer, consumer, op.depth)
    for argument in schedule.body.arguments:
        readers = get_consumers(argument)
        for producer in get_producers(argument):
            for consumer in readers:
                add_channel(producer, consumer, 2, forward_only=True)
    return nodes, channels


def _assert_reference_channels(schedule):
    nodes, channels = build_channels(schedule)
    expected_nodes, expected = _reference_channels(schedule)
    assert [id(node) for node in nodes] == [id(node) for node in expected_nodes]
    assert channels == expected
    return channels


class _ChannelsAtStageEnd(PipelineObserver):
    """Holds every schedule's channels to the reference after ``balance``
    (which reads them for its depths) and after ``estimate`` (whose
    simulation graphs carry them)."""

    def __init__(self):
        self.checked = collections.Counter()

    def on_stage_end(self, stage, state, seconds):
        if stage.name in ("balance", "estimate"):
            for schedule in state.module.walk_ops(ScheduleOp):
                _assert_reference_channels(schedule)
                self.checked[stage.name] += 1


_CHANNEL_SPECS = {
    "default": DEFAULT_PIPELINE,
    **{f"ablation-{mode}": ablation_pipeline_spec(mode, 64) for mode in ABLATION_MODES},
}


@pytest.mark.parametrize("name", sorted(_CHANNEL_SPECS))
def test_channels_equal_the_use_list_reference_on_every_zoo_schedule(name):
    checked = collections.Counter()
    for workload in list_workloads():
        observer = _ChannelsAtStageEnd()
        Compiler.from_spec(_CHANNEL_SPECS[name], platform="zu3eg", observers=[observer]).run(
            workload=workload
        )
        checked.update(observer.checked)
    # The zoo's 14 schedules (kernels with one band have none), at both.
    assert checked == {"balance": 14, "estimate": 14}


def _schedule_with_arg():
    func = FuncOp.create("f", input_types=[MemRefType((8,), f32, "dram")])
    schedule = ScheduleOp.create(operands=list(func.arguments), label="s")
    Builder.at_end(func.entry_block).insert(schedule)
    Builder.at_end(func.entry_block).insert(ReturnOp.create())
    return schedule


def _edges(channels):
    return [(c.producer, c.consumer, c.capacity) for c in channels]


def test_stream_channels_keep_use_list_order():
    schedule = _schedule_with_arg()
    builder = Builder.at_end(schedule.body)
    token = builder.insert(StreamOp.create(depth=3)).result()
    # w2 takes the stream before w1 does, so the use list reads w2, w1 while
    # program order reads w1, w2.
    w2 = NodeOp.create(outputs=[token], label="w2")
    w1 = NodeOp.create(outputs=[token], label="w1")
    builder.insert(w1)
    builder.insert(w2)
    builder.insert(NodeOp.create(inputs=[token], label="r"))
    assert _edges(_assert_reference_channels(schedule)) == [(1, 2, 3), (0, 2, 3)]


def test_readwrite_node_is_producer_and_consumer():
    schedule = _schedule_with_arg()
    builder = Builder.at_end(schedule.body)
    buf = builder.insert(BufferOp.create(MemRefType((8,), f32), depth=3)).result()
    arg = schedule.body.arguments[0]
    builder.insert(NodeOp.create(outputs=[buf], inputs=[arg], label="a"))
    builder.insert(NodeOp.create(inouts=[buf, arg], label="b"))
    builder.insert(NodeOp.create(inputs=[buf, arg], label="c"))
    assert _edges(_assert_reference_channels(schedule)) == [
        (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2, 2)
    ]


def test_one_buffer_in_two_slots_of_one_node_is_one_endpoint():
    schedule = _schedule_with_arg()
    builder = Builder.at_end(schedule.body)
    buf = builder.insert(BufferOp.create(MemRefType((8,), f32), depth=2)).result()
    builder.insert(NodeOp.create(outputs=[buf, buf], label="p"))
    builder.insert(NodeOp.create(inputs=[buf, buf], outputs=[buf], label="q"))
    builder.insert(NodeOp.create(inputs=[buf, buf], label="r"))
    assert _edges(_assert_reference_channels(schedule)) == [
        (0, 1, 2), (0, 2, 2), (1, 2, 2)
    ]


def test_schedule_argument_written_by_a_later_node_has_no_backward_edge():
    schedule = _schedule_with_arg()
    builder = Builder.at_end(schedule.body)
    arg = schedule.body.arguments[0]
    builder.insert(NodeOp.create(inputs=[arg], label="early-reader"))
    builder.insert(NodeOp.create(outputs=[arg], label="writer"))
    builder.insert(NodeOp.create(inputs=[arg], label="late-reader"))
    assert _edges(_assert_reference_channels(schedule)) == [(1, 2, 2)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dataflow_sim.py --regen")
    rows = {workload: _graph_rows(workload) for workload in list_workloads()}
    lines = [f" {json.dumps(w)}: {json.dumps(row, separators=(',', ':'))}" for w, row in rows.items()]
    _GRAPH_GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {_GRAPH_GOLDEN_PATH}")
