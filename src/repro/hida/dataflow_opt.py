"""Structural dataflow optimization (Section 6.4).

Two optimizations crucial for dataflow efficiency:

* **Multi-producer elimination** (Algorithm 3): buffers written by multiple
  nodes force sequential execution.  For *internal* buffers the later
  producers get a duplicated buffer (plus an explicit copy when they also
  read the original); for *external* buffers all producers are fused into a
  single node to avoid data races.

* **Data-path balancing**: when a dataflow graph has paths of different
  lengths (e.g. ResNet shortcut connections), the short path's buffer only
  holds two frames and back-pressures the producer.  HIDA either duplicates
  on-chip buffers along the short path (inserting copy nodes) or, for large
  buffers, spills the buffer to external memory as a *soft FIFO* and keeps
  the execution order with single-bit token streams (elastic node
  execution).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from ..dialects.dataflow import (
    BufferOp,
    MemoryEffect,
    NodeOp,
    ScheduleOp,
    StreamOp,
    StreamReadOp,
    StreamWriteOp,
    get_consumers,
    get_node_users,
    get_producers,
)
from ..dialects.memref import CopyOp
from ..estimation.dataflow_sim import build_channels, channel_depths
from ..ir.builder import Builder
from ..ir.builtin import ConstantOp
from ..ir.core import Value
from ..ir.types import MemRefType, i1

__all__ = [
    "eliminate_multiple_producers",
    "balance_data_paths",
    "BalanceReport",
]


# ---------------------------------------------------------------------------
# Multi-producer elimination (Algorithm 3)
# ---------------------------------------------------------------------------


def _internal_buffers(schedule: ScheduleOp) -> List[BufferOp]:
    return [op for op in schedule.body.operations if isinstance(op, BufferOp)]


def _external_buffer_values(schedule: ScheduleOp) -> List[Value]:
    """Buffer-typed values visible to the schedule but allocated outside it."""
    external: List[Value] = []
    for argument in schedule.body.arguments:
        if isinstance(argument.type, MemRefType):
            external.append(argument)
    return external


def _clone_buffer(buffer_op: BufferOp, suffix: str, after: BufferOp) -> BufferOp:
    """A copy of ``buffer_op``'s buffer, placed right after ``after``."""
    clone = BufferOp.create(
        buffer_op.memref_type,
        depth=buffer_op.depth,
        partition=buffer_op.partition,
        layout=buffer_op.layout,
        memory_kind=buffer_op.memory_kind,
        name_hint=(buffer_op.result().name_hint or "buf") + suffix,
    )
    return after.parent.insert_after(after, clone)


def eliminate_multiple_producers(schedule: ScheduleOp) -> int:
    """Algorithm 3.  Returns the number of violations eliminated."""
    eliminated = 0

    # Case (1): internal buffers -> a duplicate for every extra producer.
    # Users come in program order, and each extra producer starts a segment:
    # it and every user up to the next producer move to its own duplicate.
    block = schedule.body
    for buffer_op in _internal_buffers(schedule):
        buffer = buffer_op.result()
        producers = get_producers(buffer)
        if len(producers) <= 1:
            continue
        extra = set(producers[1:])
        version: Value = buffer  # what the segment so far reads and writes
        last: BufferOp = buffer_op
        for user in get_node_users(buffer):
            if user.parent is not block:
                continue
            if user in extra:
                reads_previous = user.reads(buffer)
                last = _clone_buffer(buffer_op, "_dup", after=last)
                previous, version = version, last.result()
                user.replace_operand(buffer, version)
                if reads_previous:
                    # The producer needs the data written so far: it reads the
                    # previous version as an input and copies it in first.
                    previous_arg = user.add_operand_with_argument(
                        previous, MemoryEffect.READ
                    )
                    copy = CopyOp.create(previous_arg, user.block_argument_for(version))
                    user.body.insert(0, copy)
                eliminated += 1
            elif version is not buffer:
                user.replace_operand(buffer, version)

    # Case (2): external buffers -> merge all producers into a single node.
    # The merge must take the full program-order *span* — the producers plus
    # every node between them — or interleaved consumers are reordered: in a
    # time-stepped stencil (A->B, B->A, A->B, B->A) merging just the
    # producers of A would execute both B-writing steps before the first
    # A-writing step, reading stale data.  (Caught by translation
    # validation: see the README's worked example.)
    for buffer in _external_buffer_values(schedule):
        producers = get_producers(buffer)
        if len(producers) <= 1:
            continue
        ordered = block.in_order(producers)
        first, last = block.index_of(ordered[0]), block.index_of(ordered[-1])
        span = [op for op in block.operations[first:last + 1] if isinstance(op, NodeOp)]
        _merge_nodes(schedule, span)
        eliminated += 1
    return eliminated


def _merge_nodes(schedule: ScheduleOp, nodes: Sequence[NodeOp]) -> NodeOp:
    """Fuse several nodes into one, executing them sequentially.

    The merged node is inserted at the *last* member's position so every
    buffer/stream declared between the members still dominates its use.
    """
    block = schedule.body
    nodes = block.in_order(nodes)
    last = nodes[-1]
    # Build the merged operand list with merged effects.
    merged_values: List[Value] = []
    merged_effects: List[str] = []

    def add(value: Value, effect: str) -> int:
        for i, existing in enumerate(merged_values):
            if existing is value:
                if effect != merged_effects[i] and MemoryEffect.PARAM not in (
                    effect,
                    merged_effects[i],
                ):
                    merged_effects[i] = MemoryEffect.READ_WRITE
                elif merged_effects[i] == MemoryEffect.PARAM:
                    merged_effects[i] = effect
                return i
        merged_values.append(value)
        merged_effects.append(effect)
        return len(merged_values) - 1

    for node in nodes:
        for operand, effect in zip(node.operands, node.effects):
            add(operand, effect)

    inputs = [v for v, e in zip(merged_values, merged_effects) if e == MemoryEffect.READ]
    outputs = [v for v, e in zip(merged_values, merged_effects) if e == MemoryEffect.WRITE]
    inouts = [v for v, e in zip(merged_values, merged_effects) if e == MemoryEffect.READ_WRITE]
    params = [v for v, e in zip(merged_values, merged_effects) if e == MemoryEffect.PARAM]
    merged = NodeOp.create(
        inputs=inputs,
        outputs=outputs,
        inouts=inouts,
        params=params,
        label="+".join(n.label or "node" for n in nodes),
    )
    block.insert_before(last, merged)

    for node in nodes:
        # Move the node's body ops into the merged node, rewiring its block
        # arguments to the merged node's arguments.
        mapping: Dict[Value, Value] = {}
        for operand, argument in zip(node.operands, node.body.arguments):
            mapping[argument] = merged.block_argument_for(operand)
        moved = node.body.operations
        merged.body.splice(moved)
        for op in moved:
            # Rewire operands referencing old block arguments.
            for nested in op.walk():
                for i, nested_operand in enumerate(nested.operands):
                    if nested_operand in mapping:
                        nested.set_operand(i, mapping[nested_operand])
        node.erase()
    return merged


# ---------------------------------------------------------------------------
# Data path balancing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BalanceReport:
    """Summary of the data-path balancing transformation."""

    buffers_deepened: int = 0
    #: Always 0 (deepening models duplication); kept for the IR-cache payload.
    copy_nodes_inserted: int = 0
    soft_fifos: int = 0
    token_streams: int = 0


def balance_data_paths(
    schedule: ScheduleOp,
    on_chip_bit_budget: int = 4 * 1024 * 1024 * 8,
) -> BalanceReport:
    """Balance unequal data paths in the schedule.

    For every internal buffer whose consumer sits more than one level deeper
    than its producer, the buffer must be able to hold the extra in-flight
    frames.  Small buffers are deepened on-chip (method 1: buffer
    duplication); large buffers are spilled to external memory as soft FIFOs
    and the producer/consumer pair is synchronized through 1-bit token
    streams (method 2: elastic node execution).
    """
    report = BalanceReport()
    nodes, channels = build_channels(schedule)
    depths = dict(zip(map(id, nodes), channel_depths(len(nodes), channels)))

    for buffer_op in list(_internal_buffers(schedule)):
        buffer = buffer_op.result()
        producers = get_producers(buffer)
        consumers = get_consumers(buffer)
        if not producers or not consumers:
            continue
        producer_depth = min(depths.get(id(p), 0) for p in producers)
        consumer_depth = max(depths.get(id(c), 0) for c in consumers)
        slack = consumer_depth - producer_depth
        if slack <= 1:
            continue
        required_stages = slack + 1  # frames in flight along the longer path
        if buffer_op.depth >= required_stages:
            continue
        buffer_bits = buffer_op.memref_type.bitwidth * required_stages
        if buffer_bits <= on_chip_bit_budget:
            # Method (1): on-chip duplication — modelled by raising the
            # ping-pong stage count of the buffer.
            buffer_op.set_depth(required_stages)
            buffer_op.set_attr("balanced", True)
            report.buffers_deepened += 1
        else:
            # Method (2): soft FIFO in external memory plus token flow.
            buffer_op.set_memory_kind("dram")
            buffer_op.set_depth(required_stages)
            buffer_op.set_attr("soft_fifo", True)
            report.soft_fifos += 1
            for producer in producers:
                for consumer in consumers:
                    stream = StreamOp.create(i1, depth=required_stages, name_hint="token")
                    schedule.body.insert_before(producer, stream)
                    token = stream.result()
                    producer_arg = producer.add_operand_with_argument(
                        token, MemoryEffect.WRITE
                    )
                    consumer_arg = consumer.add_operand_with_argument(
                        token, MemoryEffect.READ
                    )
                    producer_builder = Builder.at_end(producer.body)
                    one = producer_builder.insert(ConstantOp.create(1, i1))
                    producer_builder.insert(
                        StreamWriteOp.create(producer_arg, one.result())
                    )
                    consumer_builder = Builder.at_start(consumer.body)
                    consumer_builder.insert(StreamReadOp.create(consumer_arg))
                    report.token_streams += 1
    return report
