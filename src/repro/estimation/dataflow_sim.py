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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dialects.dataflow import BufferOp, MemoryEffect, NodeOp, ScheduleOp, StreamOp
from ..ir.core import Value

__all__ = [
    "ChannelSpec",
    "DataflowTimeline",
    "simulate_dataflow",
    "dataflow_timeline",
    "build_channels",
    "channel_cycles",
    "channel_reachability",
    "channel_depths",
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

    One pass over the nodes' operand and effect lists gives every value its
    writers and readers as node indices, each node once, in node order.
    Channels then follow buffers in body order (writers x readers), streams
    in body order with their nodes in use-list order, and schedule arguments
    (forward edges only); a node is never its own channel's consumer.
    """
    nodes = schedule.nodes
    index_of = {node: i for i, node in enumerate(nodes)}
    writers: Dict[Value, List[int]] = {}
    readers: Dict[Value, List[int]] = {}
    for i, node in enumerate(nodes):
        for value, effect in zip(node.operands, node.get_attr("effects", ())):
            if effect in MemoryEffect.WRITES:
                indices = writers.setdefault(value, [])
                if not indices or indices[-1] != i:
                    indices.append(i)
            if effect in MemoryEffect.READS:
                indices = readers.setdefault(value, [])
                if not indices or indices[-1] != i:
                    indices.append(i)
    channels: List[ChannelSpec] = []

    # Buffers and streams allocated inside the schedule.
    for op in schedule.body.operations:
        if isinstance(op, BufferOp):
            value = op.result()
            capacity = max(op.depth, 1)
            consumers = readers.get(value, ())
            for p in writers.get(value, ()):
                for c in consumers:
                    if c != p:
                        channels.append(ChannelSpec(p, c, capacity))
        elif isinstance(op, StreamOp):
            value = op.result()
            users = [index_of[u] for u in value.users if u in index_of]
            written, read = writers.get(value, ()), readers.get(value, ())
            for p in users:
                if p in written:
                    for c in users:
                        if c in read and c != p:
                            channels.append(ChannelSpec(p, c, op.depth))

    # Values passed in from outside (schedule block arguments): a write by one
    # node followed by a read by another still orders the two nodes.
    for argument in schedule.body.arguments:
        consumers = readers.get(argument, ())
        for p in writers.get(argument, ()):
            for c in consumers:
                if c > p:
                    channels.append(ChannelSpec(p, c, 2))
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
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> Tuple[List[List[int]], List[List[Tuple[int, int]]]]:
    """Per node, in channel order, the producers it reads and the
    ``(capacity, consumer)`` of each channel it writes."""
    producers: List[List[int]] = [[] for _ in range(num_nodes)]
    consumers: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for channel in channels:
        producers[channel.consumer].append(channel.producer)
        consumers[channel.producer].append((channel.capacity, channel.consumer))
    return producers, consumers


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
    order = _topological_order(num_nodes, channels)
    producers, consumers = _frame_bounds(num_nodes, channels)
    # Each node's latency and frame spacing floored at one cycle, once.
    # ``max`` keeps a NaN operand where it stands; each ``>`` below takes
    # the larger of two times exactly as ``max`` would.
    durations = [max(latency, 1.0) for latency in latencies]
    spacings = None if intervals is None else [max(interval, 1.0) for interval in intervals]
    finish = [[0.0] * num_nodes for _ in range(frames)]
    start = [[0.0] * num_nodes for _ in range(frames)]
    for frame in range(frames):
        finished = finish[frame]
        for node in order:
            earliest = 0.0
            if frame > 0:
                prior = (
                    finish[frame - 1][node]
                    if spacings is None
                    else start[frame - 1][node] + spacings[node]
                )
                if prior > earliest:
                    earliest = prior
            for producer in producers[node]:
                ready = finished[producer]
                if ready > earliest:
                    earliest = ready
            for capacity, consumer in consumers[node]:
                # A channel with capacity C holds frames f-1 .. f-C while the
                # producer works on frame f; the slot for frame f is free once
                # the consumer has finished frame f - C.
                waiting_frame = frame - capacity
                if waiting_frame >= 0:
                    freed = finish[waiting_frame][consumer]
                    if freed > earliest:
                        earliest = freed
            start[frame][node] = earliest
            finished[node] = earliest + durations[node]
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
    producers, _ = _frame_bounds(num_nodes, channels)
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
                (finish[frame][producer] for producer in producers[node]),
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


def channel_reachability(
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> List[FrozenSet[int]]:
    """The nodes each node reaches by one or more channel edges (itself
    exactly when it sits on a cycle): the one closure :func:`channel_cycles`
    and the static rules' orderings read."""
    adjacency = _dedup_adjacency(num_nodes, channels)
    closure: List[FrozenSet[int]] = []
    for start in range(num_nodes):
        seen: Set[int] = set()
        stack = [start]
        while stack:
            for succ in adjacency[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        closure.append(frozenset(seen))
    return closure


def channel_cycles(
    num_nodes: int, channels: Sequence[ChannelSpec]
) -> List[List[int]]:
    """Cyclic strongly connected components of the channel graph.

    Returns one sorted member list per SCC with more than one node (self
    channels never exist: :func:`build_channels` drops producer == consumer
    edges), ordered by smallest member: each node on a cycle with the nodes
    it reaches that reach it back.  This is the *single* definition of "a
    cycle" over the simulator's channel graph, which the static deadlock
    checker in :mod:`repro.analysis` reads.
    """
    reach = channel_reachability(num_nodes, channels)
    components: List[List[int]] = []
    for node in range(num_nodes):
        component = sorted(other for other in reach[node] if node in reach[other])
        if len(component) > 1 and component[0] == node:
            components.append(component)
    return components


def channel_depths(num_nodes: int, channels: Sequence[ChannelSpec]) -> List[int]:
    """Longest-path depth of every node over the channel graph.

    Edges are relaxed in node (program) order, which is a topological order
    for acyclic dataflow; at most ``num_nodes`` passes bound the result on a
    cycle.  Data-path balancing and the ``buffer-sizing`` rule read these
    depths, so both see the simulator's graph.
    """
    adjacency = _dedup_adjacency(num_nodes, channels)
    depth = [0] * num_nodes
    for _ in range(num_nodes):
        changed = False
        for node in range(num_nodes):
            for succ in adjacency[node]:
                if depth[succ] < depth[node] + 1:
                    depth[succ] = depth[node] + 1
                    changed = True
        if not changed:
            break
    return depth


def _topological_order(num_nodes: int, channels: Sequence[ChannelSpec]) -> List[int]:
    """Kahn's order over data edges.

    With cycles (e.g. in-place updates) the nodes Kahn's algorithm could not
    schedule are appended in index (program) order; :func:`channel_cycles`
    names the nodes that actually sit on a cycle.
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
    if len(order) != num_nodes:
        scheduled = set(order)
        order.extend(i for i in range(num_nodes) if i not in scheduled)
    return order
