"""Tests of the coarse-grained dataflow simulator
(:mod:`repro.estimation.dataflow_sim`).

The simulator is the expensive fidelity of the DSE subsystem, so its
behavioral contract matters: topological ordering must be stable under
channel permutations, capacity-1 channels must serialize producer and
consumer (back-pressure), repeated simulations of the same schedule must be
bit-identical, and where the analytic estimator draws a clear ordering
between designs the simulation must agree.
"""

import itertools
import json
import pathlib
import sys

import pytest

from repro.dialects.dataflow import BufferOp, ScheduleOp, get_consumers, get_producers
from repro.dse import build_space, explore, polybench_suite
from repro.estimation import (
    ChannelSpec,
    build_channels,
    simulate_dataflow,
    simulate_design,
    simulate_graphs,
)
from repro.estimation.dataflow_sim import _topological_order
from repro.hida.dataflow_opt import node_depths
from repro.workloads import as_module, list_workloads
from repro.compiler import Compiler


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


def test_topological_order_with_cycle_exposes_exact_member_set():
    from repro.estimation.dataflow_sim import topological_order_with_cycle

    # Acyclic: a complete order, an empty member set.
    order, members = topological_order_with_cycle(
        3, [ChannelSpec(0, 1), ChannelSpec(1, 2)]
    )
    assert order == [0, 1, 2]
    assert members == frozenset()
    # A cycle feeding a downstream chain: only the cycle's nodes are
    # members — downstream nodes are victims, not causes.
    channels = [
        ChannelSpec(0, 1),
        ChannelSpec(1, 0),
        ChannelSpec(1, 2),
        ChannelSpec(2, 3),
    ]
    order, members = topological_order_with_cycle(4, channels)
    assert sorted(order) == [0, 1, 2, 3]
    assert members == frozenset({0, 1})
    # The legacy helper stays a thin wrapper over the same order.
    assert _topological_order(4, channels) == order


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
            depths = node_depths(schedule)
            schedules.append(
                {
                    "channels": [[c.producer, c.consumer, c.capacity] for c in channels],
                    "depths": [depths[id(node)] for node in nodes],
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dataflow_sim.py --regen")
    rows = {workload: _graph_rows(workload) for workload in list_workloads()}
    lines = [f" {json.dumps(w)}: {json.dumps(row, separators=(',', ':'))}" for w, row in rows.items()]
    _GRAPH_GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {_GRAPH_GOLDEN_PATH}")
