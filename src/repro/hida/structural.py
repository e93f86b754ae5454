"""Functional to Structural dataflow lowering (Section 6.3).

Three procedures, matching the paper:

1. **Buffer generation** — every on-chip ``memref.alloc`` that carries data
   between tasks becomes a ``hida.buffer`` with default partition, layout and
   placement attributes (and ping-pong depth 2 so producers and consumers can
   interleave their accesses).
2. **dispatch → schedule mapping** — each ``hida.dispatch`` becomes an
   isolated ``hida.schedule``; values defined outside (function arguments,
   weight globals) are passed in explicitly as operands/block arguments.
3. **task → node mapping** — each ``hida.task`` becomes an isolated
   ``hida.node`` whose operands carry explicit memory-effect information,
   derived by analysing the loads, stores and copies in the task body.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..dialects.affine import AffineLoadOp, AffineStoreOp
from ..dialects.dataflow import (
    BufferOp,
    DispatchOp,
    MemoryEffect,
    NodeOp,
    ScheduleOp,
    TaskOp,
    YieldOp,
)
from ..dialects.linalg import LinalgOp
from ..dialects.memref import AllocOp, CopyOp
from ..ir.builtin import ModuleOp
from ..ir.core import Operation, Value
from ..ir.types import MemRefType
from ..transforms.linalg_to_affine import unlowered_op_error

__all__ = [
    "convert_task_to_node",
    "convert_dispatch_to_schedule",
    "lower_to_structural_dataflow",
]


def _allocs_to_buffers(allocs: List[AllocOp], default_depth: int) -> int:
    """Procedure (1): replace on-chip allocs with ``hida.buffer`` ops.

    Returns the number of converted buffers.  Buffers default to ping-pong
    depth ``default_depth`` so inter-task communication can overlap.
    """
    for alloc in allocs:
        memref_type: MemRefType = alloc.memref_type
        buffer = BufferOp.create(
            memref_type,
            depth=default_depth,
            memory_kind="bram_t2p" if memref_type.is_on_chip else "dram",
            name_hint=alloc.result().name_hint,
        )
        block = alloc.parent
        block.insert(block.index_of(alloc), buffer)
        alloc.result().replace_all_uses_with(buffer.result())
        alloc.erase()
    return len(allocs)


def _walk_to_nodes(container: Operation) -> List[Operation]:
    """``container.walk()`` (post-order) without the bodies of nested nodes.

    A node is isolated from above: the ops of its body use only its block
    arguments and values they define, so what the node reads from outside
    is exactly its operands.  Every other child is walked whole.
    """
    ops: List[Operation] = []
    for region in container.regions:
        for block in region.blocks:
            for child in block.operations:
                if isinstance(child, NodeOp):
                    ops.append(child)
                else:
                    ops.extend(child.walk())
    ops.append(container)
    return ops


def _memory_effects(ops: List[Operation]) -> Tuple[List[Value], Dict[int, str]]:
    """Find external values used by the walk ``ops`` and their memory effects.

    Returns the externally-defined values in first-use order plus a map from
    ``id(value)`` to the effect (``read``/``write``/``readwrite``/``param``).
    On a :func:`_walk_to_nodes` walk a nested node is isolated, so it
    contributes its operands (a memref one as ``readwrite``), where the walk
    reaches the node; the answer is that of the whole walk.
    """
    order: List[Value] = []
    effects: Dict[int, str] = {}
    # Values the walk defines: its ops' results and their blocks' arguments.
    # Built whole before any use is read: a block argument's owner is an
    # ancestor, which post-order yields after the uses.
    local = {id(result) for op in ops for result in op.results}
    local.update(
        id(argument)
        for op in ops
        for region in op.regions
        for block in region.blocks
        for argument in block.arguments
    )

    def note(value: Value, reads: bool, writes: bool) -> None:
        key = id(value)
        if key in local:
            return
        current = effects.get(key)
        if current is None:
            order.append(value)
            current = MemoryEffect.PARAM
        if reads and writes:
            current = MemoryEffect.READ_WRITE
        elif reads:
            current = (
                MemoryEffect.READ_WRITE if MemoryEffect.writes(current) else MemoryEffect.READ
            )
        elif writes:
            current = (
                MemoryEffect.READ_WRITE if MemoryEffect.reads(current) else MemoryEffect.WRITE
            )
        effects[key] = current

    for op in ops:
        if isinstance(op, AffineLoadOp):
            note(op.memref, True, False)
            indices = op.index_operands
        elif isinstance(op, AffineStoreOp):
            note(op.memref, False, True)
            note(op.value, False, False)
            indices = op.index_operands
        elif isinstance(op, CopyOp):
            note(op.source, True, False)
            note(op.target, False, True)
            continue
        else:
            for operand in op.operands:
                if id(operand) not in local:
                    # Conservative: unknown use of a memref is read-write.
                    memref = isinstance(operand.type, MemRefType)
                    note(operand, memref, memref)
            continue
        for index in indices:
            if id(index) not in local:
                note(index, False, False)
    return order, effects


def convert_task_to_node(task: TaskOp) -> NodeOp:
    """Procedure (3): map one task to an isolated node with explicit effects."""
    ops = _walk_to_nodes(task)
    inside = {id(op) for op in ops}
    values, effects = _memory_effects(ops)
    inputs = [v for v in values if effects[id(v)] == MemoryEffect.READ]
    outputs = [v for v in values if effects[id(v)] == MemoryEffect.WRITE]
    inouts = [v for v in values if effects[id(v)] == MemoryEffect.READ_WRITE]
    params = [v for v in values if effects[id(v)] == MemoryEffect.PARAM]

    node = NodeOp.create(
        inputs=inputs,
        outputs=outputs,
        inouts=inouts,
        params=params,
        label=task.label,
    )
    if task.has_attr("tile_size"):
        node.set_attr("tile_size", task.get_attr("tile_size"))
    block = task.parent
    block.insert(block.index_of(task), node)

    # Move the payload into the node body and rewire external values to the
    # node's block arguments (the node is isolated from above).  The users
    # to rewire are the payload's ops: the task's walk, less the task and
    # its yield, which stay behind.
    yield_op = task.yield_op
    inside.discard(id(task))
    for op in list(task.body.operations):
        if op is yield_op:
            continue
        op.detach()
        node.body.append(op)
    if yield_op is not None:
        inside.discard(id(yield_op))
    for operand, argument in zip(node.operands, node.body.arguments):
        operand.replace_uses_if(argument, lambda user: id(user) in inside)

    if task.num_results:
        # Any remaining task results must be dead by now (tensors were
        # bufferized); drop them.
        for result in task.results:
            if result.has_uses:
                for op in node.walk(order="pre"):
                    if isinstance(op, LinalgOp):
                        raise unlowered_op_error(op, "lower-structural")
                raise RuntimeError(
                    "task still produces SSA results at structural lowering; "
                    "run the linalg bufferization first"
                )
        task.results = []
    if yield_op is not None:
        yield_op.set_operands([])
    task.erase()
    return node


def convert_dispatch_to_schedule(dispatch: DispatchOp) -> ScheduleOp:
    """Procedure (2): map a dispatch (whose tasks became nodes) to a schedule.

    Reads the dispatch's ops but not its nodes' bodies: each node is already
    isolated, so its operands are all it uses from outside (see
    :func:`_memory_effects`).  Both the buffers it pulls in and the
    schedule's operands come from that one walk.
    """
    block = dispatch.parent
    if block is None:
        raise ValueError("dispatch has no parent block")

    ops = _walk_to_nodes(dispatch)
    inside = {id(op) for op in ops}
    # Pull buffers used exclusively by this dispatch's nodes into the schedule
    # so they become *internal* buffers (eligible for duplication).
    internal_buffers: List[BufferOp] = []
    func_block = dispatch.parent_op.body if dispatch.parent_op else None
    if func_block is not None:
        for op in list(func_block.operations):
            if isinstance(op, BufferOp):
                users = op.result().users
                if users and all(id(u) in inside for u in users):
                    internal_buffers.append(op)

    values, effects = _memory_effects(ops)
    # Values produced by internal buffers will move inside; exclude them.
    internal_ids = {id(b.result()) for b in internal_buffers}
    external_values = [v for v in values if id(v) not in internal_ids]

    schedule = ScheduleOp.create(operands=external_values, label=dispatch.get_attr("label", ""))
    block.insert(block.index_of(dispatch), schedule)

    # Move internal buffers, then the dispatch body (nodes) into the schedule.
    for buffer in internal_buffers:
        buffer.detach()
        schedule.body.append(buffer)
    for op in list(dispatch.body.operations):
        if isinstance(op, YieldOp):
            inside.discard(id(op))
            continue
        op.detach()
        schedule.body.append(op)

    # Rewire external values to schedule block arguments inside the schedule:
    # the users to rewire are the walk's ops, less the dispatch and its yield.
    inside.discard(id(dispatch))
    for operand, argument in zip(schedule.operands, schedule.body.arguments):
        argument.name_hint = operand.name_hint
        operand.replace_uses_if(argument, lambda user: id(user) in inside)

    if dispatch.num_results:
        for result in dispatch.results:
            if result.has_uses:
                raise RuntimeError("dispatch results must be dead before lowering")
        dispatch.results = []
    dispatch.erase()
    return schedule


def lower_to_structural_dataflow(module: ModuleOp, default_depth: int = 2) -> List[ScheduleOp]:
    """Run the full Functional → Structural lowering on a module.

    Returns the schedules created (one per dispatch, innermost first).
    """
    schedules: List[ScheduleOp] = []
    for func in module.functions:
        ops = list(func.walk())
        _allocs_to_buffers([op for op in ops if isinstance(op, AllocOp)], default_depth)
        # Innermost dispatches first so nested hierarchies lower bottom-up.
        dispatches = [op for op in ops if isinstance(op, DispatchOp)]
        for dispatch in dispatches:
            for task in list(dispatch.body.operations):
                if isinstance(task, TaskOp):
                    convert_task_to_node(task)
        for dispatch in dispatches:
            schedules.append(convert_dispatch_to_schedule(dispatch))
    return schedules
