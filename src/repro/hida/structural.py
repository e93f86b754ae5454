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
from ..dialects.memref import AllocOp, CopyOp
from ..ir.builtin import FuncOp, ModuleOp
from ..ir.core import Operation, Value
from ..ir.types import MemRefType

__all__ = [
    "convert_allocs_to_buffers",
    "analyze_memory_effects",
    "convert_task_to_node",
    "convert_dispatch_to_schedule",
    "lower_to_structural_dataflow",
]


def convert_allocs_to_buffers(func: FuncOp, default_depth: int = 2) -> int:
    """Procedure (1): replace on-chip allocs with ``hida.buffer`` ops.

    Returns the number of converted buffers.  Buffers default to ping-pong
    depth ``default_depth`` so inter-task communication can overlap.
    """
    converted = 0
    for alloc in list(func.walk_ops(AllocOp)):
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
        converted += 1
    return converted


def analyze_memory_effects(
    container: Operation,
) -> Tuple[List[Value], Dict[int, str]]:
    """Find external values used inside ``container`` and their memory effects.

    Returns the externally-defined values in first-use order plus a map from
    ``id(value)`` to the effect (``read``/``write``/``readwrite``/``param``).
    """
    inside = {id(op) for op in container.walk()}

    order: List[Value] = []
    effects: Dict[int, str] = {}

    def note(value: Value, reads: bool, writes: bool) -> None:
        defining = value.defining_op
        if defining is not None and id(defining) in inside:
            return  # locally defined
        if defining is None:
            owner_block = value.owner
            owner_op = owner_block.parent_op if owner_block is not None else None
            if owner_op is not None and id(owner_op) in inside:
                return  # argument of a nested region
        if id(value) not in effects:
            order.append(value)
            effects[id(value)] = MemoryEffect.PARAM
        current = effects[id(value)]
        if reads and writes:
            effects[id(value)] = MemoryEffect.READ_WRITE
        elif reads:
            effects[id(value)] = (
                MemoryEffect.READ_WRITE
                if MemoryEffect.writes(current)
                else MemoryEffect.READ
            )
        elif writes:
            effects[id(value)] = (
                MemoryEffect.READ_WRITE
                if MemoryEffect.reads(current)
                else MemoryEffect.WRITE
            )

    # A second walk, not a second half of the first: a block argument's owner
    # is an ancestor, which post-order yields last, so ``inside`` must be whole.
    for op in container.walk():
        if isinstance(op, AffineLoadOp):
            note(op.memref, reads=True, writes=False)
            for index in op.index_operands:
                note(index, reads=False, writes=False)
        elif isinstance(op, AffineStoreOp):
            note(op.memref, reads=False, writes=True)
            note(op.value, reads=False, writes=False)
            for index in op.index_operands:
                note(index, reads=False, writes=False)
        elif isinstance(op, CopyOp):
            note(op.source, reads=True, writes=False)
            note(op.target, reads=False, writes=True)
        else:
            for operand in op.operands:
                if isinstance(operand.type, MemRefType):
                    # Conservative: unknown use of a memref is read-write.
                    note(operand, reads=True, writes=True)
                else:
                    note(operand, reads=False, writes=False)
    return order, effects


def convert_task_to_node(task: TaskOp) -> NodeOp:
    """Procedure (3): map one task to an isolated node with explicit effects."""
    values, effects = analyze_memory_effects(task)
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
    # node's block arguments (the node is isolated from above).
    for op in list(task.body.operations):
        if isinstance(op, YieldOp):
            continue
        op.detach()
        node.body.append(op)
    for operand, argument in zip(node.operands, node.body.arguments):
        operand.replace_uses_if(
            argument, lambda user: user is not node and node.is_ancestor_of(user)
        )

    if task.num_results:
        # Any remaining task results must be dead by now (tensors were
        # bufferized); drop them.
        for result in task.results:
            if result.has_uses:
                raise RuntimeError(
                    "task still produces SSA results at structural lowering; "
                    "run the linalg bufferization first"
                )
        task.results = []
    if task.yield_op is not None:
        task.yield_op.set_operands([])
    task.erase()
    return node


def convert_dispatch_to_schedule(dispatch: DispatchOp) -> ScheduleOp:
    """Procedure (2): map a dispatch (whose tasks became nodes) to a schedule."""
    block = dispatch.parent
    if block is None:
        raise ValueError("dispatch has no parent block")

    # Pull buffers used exclusively by this dispatch's nodes into the schedule
    # so they become *internal* buffers (eligible for duplication).
    dispatch_ops = set(id(op) for op in dispatch.walk())
    internal_buffers: List[BufferOp] = []
    parent_block = block
    func_block = dispatch.parent_op.body if dispatch.parent_op else None
    if func_block is not None:
        for op in list(func_block.operations):
            if isinstance(op, BufferOp):
                users = op.result().users
                if users and all(id(u) in dispatch_ops or u is dispatch for u in users):
                    internal_buffers.append(op)

    values, effects = analyze_memory_effects(dispatch)
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
            continue
        op.detach()
        schedule.body.append(op)

    # Rewire external values to schedule block arguments inside the schedule.
    for operand, argument in zip(schedule.operands, schedule.body.arguments):
        argument.name_hint = operand.name_hint
        operand.replace_uses_if(
            argument,
            lambda user: user is not schedule and schedule.is_ancestor_of(user),
        )

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
        convert_allocs_to_buffers(func, default_depth=default_depth)
        # Innermost dispatches first so nested hierarchies lower bottom-up.
        dispatches = list(func.walk_ops(DispatchOp))
        for dispatch in dispatches:
            for task in list(dispatch.body.operations):
                if isinstance(task, TaskOp):
                    convert_task_to_node(task)
        for dispatch in dispatches:
            schedules.append(convert_dispatch_to_schedule(dispatch))
    return schedules
