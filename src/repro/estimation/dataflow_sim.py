"""Coarse-grained dataflow simulator.

Models the steady-state behaviour of a structural dataflow schedule: nodes
fire once per data frame, communicate through buffers with a bounded number
of ping-pong stages (or streams / tokens), and overlap their execution across
frames.  The simulator computes the steady-state initiation interval of the
whole pipeline and the single-frame latency, which the QoR estimator turns
into throughput.

This is where unbalanced data paths show up: a shortcut buffer with only two
stages between a producer and a far-away consumer (e.g. the residual path of
ResNet) back-pressures the producer and inflates the interval; HIDA's
data-path balancing inserts extra stages (or spills to external memory with
token flow) precisely to remove that back-pressure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..dialects.dataflow import (
    BufferOp,
    NodeOp,
    ScheduleOp,
    StreamOp,
    get_consumers,
    get_producers,
)

__all__ = [
    "ChannelSpec",
    "DataflowTimeline",
    "simulate_dataflow",
    "dataflow_timeline",
    "build_channels",
    "channel_cycles",
    "topological_order_with_cycle",
]


@dataclasses.dataclass
class ChannelSpec:
    """A producer -> consumer dependency through a buffer or stream.

    ``capacity`` is the number of in-flight frames the channel can hold
    (ping-pong depth for buffers, entry count for token streams).
    """

    producer: int
    consumer: int
    capacity: int = 2

    def __post_init__(self) -> None:
        self.capacity = max(1, int(self.capacity))


def build_channels(schedule: ScheduleOp) -> Tuple[List[NodeOp], List[ChannelSpec]]:
    """Derive the frame-level channel graph of a schedule.

    Every buffer (or stream) written by node P and read by node C contributes
    a channel P -> C whose capacity is the buffer's ping-pong depth.  Nodes
    communicating through external memory are connected by their token
    streams; if no token stream exists the dependence is still honoured with
    the default capacity.
    """
    nodes = schedule.nodes
    index_of = {id(node): i for i, node in enumerate(nodes)}
    channels: List[ChannelSpec] = []

    def add_channel(
        producer: NodeOp, consumer: NodeOp, capacity: int, forward_only: bool = False
    ) -> None:
        p, c = index_of.get(id(producer)), index_of.get(id(consumer))
        if p is None or c is None or p == c or (forward_only and p > c):
            return
        channels.append(ChannelSpec(p, c, capacity))

    # Buffers and streams allocated inside the schedule.
    for op in schedule.body.operations:
        if isinstance(op, BufferOp):
            value = op.result()
            capacity = max(op.depth, 1)
            consumers = get_consumers(value)
            for producer in get_producers(value):
                for consumer in consumers:
                    if producer is not consumer:
                        add_channel(producer, consumer, capacity)
        elif isinstance(op, StreamOp):
            value = op.result()
            users = [u for u in value.users if isinstance(u, NodeOp)]
            writers = [u for u in users if u.writes(value)]
            readers = [u for u in users if u.reads(value)]
            for producer in writers:
                for consumer in readers:
                    if producer is not consumer:
                        add_channel(producer, consumer, op.depth)

    # Values passed in from outside (schedule block arguments): a write by one
    # node followed by a read by another still orders the two nodes.  The
    # schedule is isolated from above, so the argument's node users are nodes
    # of this schedule: ask its use list, not every node.
    for argument in schedule.body.arguments:
        readers = get_consumers(argument)
        for producer in get_producers(argument):
            for consumer in readers:
                add_channel(producer, consumer, 2, forward_only=True)
    return nodes, channels


def simulate_dataflow(
    latencies: Sequence[float],
    channels: Sequence[ChannelSpec],
    frames: int = 16,
    intervals: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Simulate ``frames`` frames through a dataflow pipeline.

    ``latencies[i]`` is the per-frame latency of node ``i``.  Returns
    ``(steady interval, single-frame latency)``.

    The firing rule per node and frame is:

    * a node starts frame *f* only after all its predecessors finished
      frame *f* (data availability),
    * after its own frame-to-frame spacing: with ``intervals`` absent the
      node is not internally pipelined across frames (it must finish frame
      *f - 1* first); with ``intervals`` given, node *i* accepts a new frame
      every ``intervals[i]`` cycles even while earlier frames drain through
      it (an internally ping-pong-buffered engine),
    * and after every channel it writes has a free slot, i.e. its consumer
      has finished frame *f - capacity + 1* (back-pressure).
    """
    num_nodes = len(latencies)
    if num_nodes == 0:
        return 1.0, 1.0
    frames = max(int(frames), 4)
    start, finish = _schedule_frames(latencies, channels, frames, intervals)

    last_finish = [max(finish[f]) for f in range(frames)]
    single_frame_latency = last_finish[0]
    half = frames // 2
    steady_interval = (last_finish[-1] - last_finish[half]) / max(frames - 1 - half, 1)
    # Internally pipelined nodes can sustain one frame per interval, so the
    # whole pipeline's floor is the slowest node *interval* (falling back to
    # the slowest node latency for unpipelined designs).
    floor = (
        (max(latencies) if latencies else 1.0)
        if intervals is None
        else max(max(i, 1.0) for i in intervals)
    )
    steady_interval = max(steady_interval, floor)
    return steady_interval, single_frame_latency


def _frame_bounds(
    latencies: Sequence[float],
    channels: Sequence[ChannelSpec],
) -> Tuple[Dict[int, List[ChannelSpec]], Dict[int, List[ChannelSpec]]]:
    num_nodes = len(latencies)
    preds: Dict[int, List[ChannelSpec]] = {i: [] for i in range(num_nodes)}
    succs: Dict[int, List[ChannelSpec]] = {i: [] for i in range(num_nodes)}
    for channel in channels:
        preds[channel.consumer].append(channel)
        succs[channel.producer].append(channel)
    return preds, succs


def _schedule_frames(
    latencies: Sequence[float],
    channels: Sequence[ChannelSpec],
    frames: int,
    intervals: Optional[Sequence[float]],
) -> Tuple[List[List[float]], List[List[float]]]:
    """``(start, finish)`` frame-by-frame schedule of the firing recurrence.

    ``start[f][n]`` / ``finish[f][n]`` are the cycle at which node ``n``
    begins / completes frame ``f`` under the rules documented on
    :func:`simulate_dataflow`.  This is the single recurrence behind both
    the interval/latency summary and the occupancy timeline
    (:func:`dataflow_timeline`), so the two can never disagree.
    """
    num_nodes = len(latencies)
    preds, succs = _frame_bounds(latencies, channels)
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
                # A channel with capacity C holds frames f-1 .. f-C while the
                # producer works on frame f; the slot for frame f is free once
                # the consumer has finished frame f - C.
                waiting_frame = frame - channel.capacity
                if waiting_frame >= 0:
                    earliest = max(earliest, finish[waiting_frame][channel.consumer])
            start[frame][node] = earliest
            finish[frame][node] = earliest + max(latencies[node], 1.0)
    return start, finish


@dataclasses.dataclass
class DataflowTimeline:
    """Cycle-resolved occupancy of one simulated dataflow run.

    ``node_busy[n]`` holds one ``(start, finish)`` interval per frame;
    ``node_stalls[n]`` the idle gaps in front of a frame start, each
    annotated with its cause — ``"data"`` (an input frame was not ready)
    or ``"backpressure"`` (a full output channel blocked the firing).
    ``channel_depth[c]`` samples channel ``c``'s in-flight frame count at
    every push/pop instant and ``channel_hwm[c]`` is its high-water mark.
    All times are in the same cycle units as the input latencies; the obs
    layer renders this as Perfetto tracks (:func:`repro.obs.emit_timeline`).
    """

    node_busy: List[List[Tuple[float, float]]]
    node_stalls: List[List[Tuple[float, float, str]]]
    channel_depth: List[List[Tuple[float, int]]]
    channel_hwm: List[int]
    frames: int


def dataflow_timeline(
    latencies: Sequence[float],
    channels: Sequence[ChannelSpec],
    frames: int = 16,
    intervals: Optional[Sequence[float]] = None,
) -> DataflowTimeline:
    """Run the firing recurrence and keep the full occupancy timeline.

    Same inputs and scheduling rules as :func:`simulate_dataflow` (which
    reports only the interval/latency summary); the timeline is what the
    observability layer turns into per-node busy/stall tracks and
    per-channel depth counters.
    """
    num_nodes = len(latencies)
    frames = max(int(frames), 4)
    if num_nodes == 0:
        return DataflowTimeline([], [], [], [], frames)
    start, finish = _schedule_frames(latencies, channels, frames, intervals)
    preds, _ = _frame_bounds(latencies, channels)
    epsilon = 1e-9

    node_busy = [
        [(start[frame][node], finish[frame][node]) for frame in range(frames)]
        for node in range(num_nodes)
    ]
    node_stalls: List[List[Tuple[float, float, str]]] = [
        [] for _ in range(num_nodes)
    ]
    for frame in range(frames):
        for node in range(num_nodes):
            if frame > 0:
                ready = (
                    finish[frame - 1][node]
                    if intervals is None
                    else start[frame - 1][node] + max(intervals[node], 1.0)
                )
            else:
                ready = 0.0
            began = start[frame][node]
            if began <= ready + epsilon:
                continue
            # The firing is the max of the readiness bounds, so whichever
            # bound equals the actual start names the cause of the stall.
            data_bound = max(
                (finish[frame][channel.producer] for channel in preds[node]),
                default=0.0,
            )
            cause = "data" if data_bound >= began - epsilon else "backpressure"
            node_stalls[node].append((ready, began, cause))

    channel_depth: List[List[Tuple[float, int]]] = []
    channel_hwm: List[int] = []
    for channel in channels:
        # A frame enters the channel when its producer finishes it and
        # leaves when its consumer finishes it; pushes sort before pops at
        # equal timestamps so the high-water mark captures the peak.
        events = sorted(
            [(finish[f][channel.producer], 0, 1) for f in range(frames)]
            + [(finish[f][channel.consumer], 1, -1) for f in range(frames)]
        )
        depth = 0
        hwm = 0
        series: List[Tuple[float, int]] = []
        for ts, _, delta in events:
            depth += delta
            hwm = max(hwm, depth)
            if series and series[-1][0] == ts:
                series[-1] = (ts, depth)
            else:
                series.append((ts, depth))
        channel_depth.append(series)
        channel_hwm.append(hwm)
    return DataflowTimeline(
        node_busy=node_busy,
        node_stalls=node_stalls,
        channel_depth=channel_depth,
        channel_hwm=channel_hwm,
        frames=frames,
    )


def _dedup_adjacency(
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> Dict[int, List[int]]:
    adjacency: Dict[int, List[int]] = {i: [] for i in range(num_nodes)}
    seen = set()
    for channel in channels:
        key = (channel.producer, channel.consumer)
        if key in seen:
            continue
        seen.add(key)
        adjacency[channel.producer].append(channel.consumer)
    return adjacency


def channel_cycles(
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> List[List[int]]:
    """Cyclic strongly connected components of the channel graph.

    Returns one sorted member list per SCC with more than one node (self
    channels never exist: :func:`build_channels` drops producer == consumer
    edges), ordered by smallest member.  This is the *single* definition of
    "a cycle" shared by the simulator's scheduling fallback and the static
    deadlock checker in :mod:`repro.analysis` — the two can never disagree
    about which nodes are cyclically dependent.
    """
    adjacency = _dedup_adjacency(num_nodes, channels)
    # Iterative Tarjan (schedules can be deep enough to bother recursion).
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack = [False] * num_nodes
    stack: List[int] = []
    components: List[List[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if on_stack[succ]:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for start in range(num_nodes):
        if start not in index_of:
            strongconnect(start)
    components.sort(key=lambda members: members[0])
    return components


def topological_order_with_cycle(
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> Tuple[List[int], FrozenSet[int]]:
    """Kahn's order plus the member set of any channel-graph cycles.

    The order is a true topological sort when the graph is acyclic (and the
    returned member set is empty).  With cycles, nodes Kahn's algorithm
    could not schedule are appended in index (program) order and the second
    element names every node on a cycle (union of the cyclic SCCs from
    :func:`channel_cycles`) so callers can *report* the fallback instead of
    silently absorbing it.
    """
    adjacency = _dedup_adjacency(num_nodes, channels)
    indegree = [0] * num_nodes
    for successors in adjacency.values():
        for succ in successors:
            indegree[succ] += 1
    ready = sorted(i for i in range(num_nodes) if indegree[i] == 0)
    order: List[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in adjacency[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    cycle_members: FrozenSet[int] = frozenset()
    if len(order) != num_nodes:
        # Cycle (e.g. in-place updates): fall back to program order for the
        # unscheduled remainder, but expose which nodes actually sit on a
        # cycle (the remainder also contains nodes merely *downstream* of
        # one, which Kahn's algorithm cannot distinguish).
        scheduled = set(order)
        remaining = [i for i in range(num_nodes) if i not in scheduled]
        order.extend(remaining)
        cycle_members = frozenset(
            member for cycle in channel_cycles(num_nodes, channels) for member in cycle
        )
    return order, cycle_members


def _topological_order(num_nodes: int, channels: Sequence[ChannelSpec]) -> List[int]:
    """Topological order over data edges (falls back to index order on cycles)."""
    order, _ = topological_order_with_cycle(num_nodes, channels)
    return order
