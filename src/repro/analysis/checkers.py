"""The built-in semantic checkers.

Four rules over the structural dataflow graph, all phrased against the
*same* channel model the coarse-grained simulator executes
(:mod:`repro.estimation.dataflow_sim`), which is what makes the deadlock
rule differentially testable: a ``deadlock`` finding is emitted only when
the simulator itself — run over the flagged cycle with unit latencies —
cannot sustain the back-pressure-free rate, so every flagged design
provably stalls in :func:`~repro.estimation.dataflow_sim.simulate_dataflow`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..dialects.dataflow import (
    BufferOp,
    get_consumers,
    get_producers,
)
from ..estimation.dataflow_sim import ChannelSpec, channel_depths, simulate_dataflow
from .rules import AnalysisDiagnostic, AnalysisRule, register_rule

__all__ = [
    "DeadlockRule",
    "TokenBalanceRule",
    "MemoryRaceRule",
    "BufferSizingRule",
]

#: Producer/consumer rate ratio beyond which a channel counts as imbalanced.
_RATE_MISMATCH = 2.0
#: Frames simulated when probing a cycle's sustainable interval.
_CYCLE_PROBE_FRAMES = 32
#: Oversizing slack tolerated before the buffer-sizing rule reports waste.
_OVERSIZE_MARGIN = 2


@register_rule
class DeadlockRule(AnalysisRule):
    """Channel-graph cycles whose buffering cannot absorb one frame."""

    rule_id = "deadlock"
    severity = "error"
    description = (
        "a feedback cycle of channels whose aggregate capacity cannot hold "
        "one frame per member node, so the pipeline stalls on back-pressure"
    )
    hint = (
        "deepen the cycle's buffers (balance stage / larger budget) or break "
        "the feedback channel"
    )

    def check(self, context) -> Iterable[AnalysisDiagnostic]:
        channels = context.channels
        for cycle in context.cycles():
            members = set(cycle)
            remap = {node: i for i, node in enumerate(cycle)}
            sub_channels = [
                ChannelSpec(remap[c.producer], remap[c.consumer], c.capacity)
                for c in channels
                if c.producer in members and c.consumer in members
            ]
            # The simulator *is* the capacity model: probe the cycle with
            # unit latencies.  An interval above the 1-cycle floor means the
            # cycle's buffering cannot keep every member busy — adding the
            # rest of the graph only adds constraints, so the full design
            # stalls at least this much (the differential soundness test
            # pins exactly this implication).
            interval, _ = simulate_dataflow(
                [1.0] * len(cycle), sub_channels, frames=_CYCLE_PROBE_FRAMES
            )
            if interval <= 1.0 + 1e-9:
                continue
            edges: Dict[Tuple[int, int], int] = {}
            for channel in sub_channels:
                key = (channel.producer, channel.consumer)
                edges[key] = min(edges.get(key, channel.capacity), channel.capacity)
            capacity = sum(edges.values())
            labels = [context.node_label(i) for i in cycle]
            yield context.diagnostic(
                self,
                f"channel cycle through {', '.join(labels)} stalls: aggregate "
                f"capacity {capacity} over {len(cycle)} node(s) sustains at "
                f"best one frame per {interval:.2f} cycles of work",
                op=context.nodes[cycle[0]],
                members=labels,
                capacity=capacity,
                interval_ratio=interval,
            )


@register_rule
class TokenBalanceRule(AnalysisRule):
    """SDF-style production/consumption rate mismatch across a channel."""

    rule_id = "token-balance"
    severity = "warning"
    description = (
        "producer and consumer initiation intervals differ by more than the "
        "channel capacity can smooth, so one side idles every frame"
    )
    hint = (
        "rebalance parallel factors (intensity-aware parallelize) or deepen "
        "the channel to amortize the burst"
    )

    def check(self, context) -> Iterable[AnalysisDiagnostic]:
        if not context.channels:
            return
        intervals = context.node_intervals()
        for (producer, consumer), capacity in sorted(context.distinct_edges().items()):
            fast, slow = sorted((intervals[producer], intervals[consumer]))
            ratio = slow / max(fast, 1.0)
            if ratio <= _RATE_MISMATCH or capacity >= ratio:
                continue
            yield context.diagnostic(
                self,
                f"channel {context.node_label(producer)} -> "
                f"{context.node_label(consumer)} is rate-imbalanced: one side "
                f"fires every ~{fast:.0f} cycles, the other every "
                f"~{slow:.0f} ({ratio:.1f}x), and capacity {capacity} cannot "
                f"smooth the difference",
                op=context.nodes[producer],
                producer=context.node_label(producer),
                consumer=context.node_label(consumer),
                ratio=ratio,
                capacity=capacity,
            )


@register_rule
class MemoryRaceRule(AnalysisRule):
    """Unordered accesses to one memref (single-producer invariant)."""

    rule_id = "memory-race"
    severity = "error"
    description = (
        "two nodes write (error) or write/read (warning) the same memref "
        "without an ordering channel path between them"
    )
    hint = (
        "run eliminate-multi-producers, or route the dependence through a "
        "buffer/stream so the accesses are ordered"
    )

    def _values(self, context):
        for op in context.schedule.body.operations:
            if isinstance(op, BufferOp):
                yield op.result()
        yield from context.schedule.body.arguments

    def check(self, context) -> Iterable[AnalysisDiagnostic]:
        for value in self._values(context):
            writers = [
                context.index_of[id(n)]
                for n in context.nodes
                if n.writes(value)
            ]
            readers = [
                context.index_of[id(n)]
                for n in context.nodes
                if n.reads(value) and not n.writes(value)
            ]
            name = value.name_hint or "memref"
            for i, first in enumerate(writers):
                for second in writers[i + 1 :]:
                    if context.ordered(first, second):
                        continue
                    yield context.diagnostic(
                        self,
                        f"nodes {context.node_label(first)} and "
                        f"{context.node_label(second)} both write {name} "
                        f"with no ordering channel between them",
                        op=context.nodes[first],
                        kind="write-write",
                        value=name,
                    )
            for writer in writers:
                for reader in readers:
                    if context.ordered(writer, reader):
                        continue
                    yield context.diagnostic(
                        self,
                        f"node {context.node_label(reader)} reads {name} "
                        f"unordered against writer "
                        f"{context.node_label(writer)}",
                        op=context.nodes[reader],
                        severity="warning",
                        kind="write-read",
                        value=name,
                    )


@register_rule
class BufferSizingRule(AnalysisRule):
    """Channel capacities inconsistent with the analytic balance model."""

    rule_id = "buffer-sizing"
    severity = "warning"
    description = (
        "an on-chip buffer's ping-pong depth disagrees with the slack model "
        "(consumer depth - producer depth + 1 required stages), or an "
        "external tile buffer streams in sub-burst tiles"
    )
    hint = "run the balance stage (or raise its bit budget / the tile size)"

    def check(self, context) -> Iterable[AnalysisDiagnostic]:
        from ..estimation.qor import _SHORT_BURST

        nodes = context.nodes
        depths = dict(zip(map(id, nodes), channel_depths(len(nodes), context.channels)))
        for buffer_op in context.schedule.buffers:
            value = buffer_op.result()
            producers = get_producers(value)
            consumers = get_consumers(value)
            if not producers or not consumers:
                continue
            producer_depth = min(depths.get(id(p), 0) for p in producers)
            consumer_depth = max(depths.get(id(c), 0) for c in consumers)
            slack = consumer_depth - producer_depth
            required = slack + 1
            name = value.name_hint or "buffer"
            if buffer_op.is_external:
                # DRAM soft FIFOs are capacity-elastic; what matters there is
                # burst efficiency of the tile traffic (short-burst model).
                tiles = [
                    n.get_attr("tile_size", 0)
                    for n in [*producers, *consumers]
                ]
                tile_size = min((t for t in tiles if t), default=0)
                if tile_size and tile_size < _SHORT_BURST:
                    yield context.diagnostic(
                        self,
                        f"external buffer {name} streams {tile_size}-element "
                        f"tiles, below the {_SHORT_BURST}-element burst the "
                        f"DRAM model needs for full bandwidth",
                        op=buffer_op,
                        severity="note",
                        kind="short-burst",
                        buffer=name,
                        tile_size=tile_size,
                    )
                continue
            if slack > 1 and buffer_op.depth < required:
                yield context.diagnostic(
                    self,
                    f"buffer {name} holds {buffer_op.depth} stage(s) but its "
                    f"data path slack of {slack} needs {required} (frames in "
                    f"flight along the longer path back-pressure the "
                    f"producer)",
                    op=buffer_op,
                    kind="undersized",
                    buffer=name,
                    depth=buffer_op.depth,
                    required=required,
                )
            elif buffer_op.depth > max(2, required + _OVERSIZE_MARGIN):
                yield context.diagnostic(
                    self,
                    f"buffer {name} holds {buffer_op.depth} stage(s) where "
                    f"the slack model needs only {max(required, 2)} — the "
                    f"extra ping-pong copies spend BRAM without throughput",
                    op=buffer_op,
                    severity="note",
                    kind="oversized",
                    buffer=name,
                    depth=buffer_op.depth,
                    required=max(required, 2),
                )
