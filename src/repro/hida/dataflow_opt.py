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


def _clone_buffer(buffer_op: BufferOp, suffix: str) -> BufferOp:
    clone = BufferOp.create(
        buffer_op.memref_type,
        depth=buffer_op.depth,
        partition=buffer_op.partition,
        layout=buffer_op.layout,
        memory_kind=buffer_op.memory_kind,
        name_hint=(buffer_op.result().name_hint or "buf") + suffix,
    )
    block = buffer_op.parent
    block.insert(block.index_of(buffer_op) + 1, clone)
    return clone


def eliminate_multiple_producers(schedule: ScheduleOp) -> int:
    """Algorithm 3.  Returns the number of violations eliminated."""
    eliminated = 0

    # Case (1): internal buffers -> duplicate for every extra producer.
    for buffer_op in list(_internal_buffers(schedule)):
        buffer = buffer_op.result()
        producers = get_producers(buffer)
        if len(producers) <= 1:
            continue
        # Producers are already returned in program (dominance) order.
        for producer in producers[1:]:
            duplicate = _clone_buffer(buffer_op, "_dup")
            dup_value = duplicate.result()
            reads_original = producer.reads(buffer)
            # Rewire this producer and every user it dominates to the new buffer.
            block = schedule.body
            producer_index = block.index_of(producer)
            for user in get_node_users(buffer):
                if user.parent is not block:
                    continue
                if block.index_of(user) >= producer_index:
                    user.replace_operand(buffer, dup_value)
            if reads_original:
                # The producer needs the data accumulated so far: copy it in.
                original_arg = None
                # After rewiring, the producer no longer has the original as an
                # operand; add it back as a read-only input.
                original_arg = producer.add_operand_with_argument(
                    buffer, MemoryEffect.READ
                )
                dup_arg = producer.block_argument_for(dup_value)
                copy = CopyOp.create(original_arg, dup_arg)
                producer.body.insert(0, copy)
            eliminated += 1

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
        block = schedule.body
        first = min(block.index_of(node) for node in producers)
        last = max(block.index_of(node) for node in producers)
        span = [
            node
            for node in schedule.nodes
            if first <= block.index_of(node) <= last
        ]
        _merge_nodes(schedule, span)
        eliminated += 1
    return eliminated


def _merge_nodes(schedule: ScheduleOp, nodes: Sequence[NodeOp]) -> NodeOp:
    """Fuse several nodes into one, executing them sequentially.

    The merged node is inserted at the *last* member's position so every
    buffer/stream declared between the members still dominates its use.
    """
    block = schedule.body
    nodes = sorted(nodes, key=block.index_of)
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
    block.insert(block.index_of(last), merged)

    for node in nodes:
        # Move the node's body ops into the merged node, rewiring its block
        # arguments to the merged node's arguments.
        mapping: Dict[Value, Value] = {}
        for operand, argument in zip(node.operands, node.body.arguments):
            mapping[argument] = merged.block_argument_for(operand)
        for op in list(node.body.operations):
            op.detach()
            merged.body.append(op)
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
                    block = schedule.body
                    block.insert(block.index_of(producer), stream.detach())
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
