"""Functional dataflow construction and task fusion (Algorithms 1 and 2).

Functional dataflow construction walks the IR bottom-up, wraps every
*dispatchable* region with a ``hida.dispatch`` op and every task-worthy
operation with its own ``hida.task``.  A region is dispatchable when it is
owned by an iterative operation (a loop or a function) and contains at least
two iterative operations that can execute in a dataflow manner.

Task fusion then (a) applies the pre-defined profitable fusion patterns of
:data:`FUSION_PATTERNS` (one table: spec name -> match function, e.g. fuse
elementwise operations into their producers) through a worklist, and (b)
keeps fusing the two least-critical adjacent tasks until fusion would create
a new critical task, rebalancing the dataflow.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dialects import linalg
from ..dialects.affine import AffineForOp
from ..dialects.dataflow import DispatchOp, TaskOp, YieldOp
from ..dialects.memref import AllocOp, GetGlobalOp
from ..ir.builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from ..ir.core import Block, Operation, Value
from ..transforms.canonicalize import simplify_dispatch_hierarchy
from .analysis import node_intensity

__all__ = [
    "wrap_ops_in_task",
    "wrap_block_in_dispatch",
    "construct_functional_dataflow",
    "FUSION_PATTERNS",
    "fuse_tasks",
    "task_intensity",
    "fuse_dataflow_tasks",
]


# ---------------------------------------------------------------------------
# Construction (Algorithm 1)
# ---------------------------------------------------------------------------

#: Operation kinds that never become tasks on their own (pure data or
#: declarations shared by all tasks in the transparent Functional dataflow).
_NON_TASK_OPS = (
    AllocOp,
    GetGlobalOp,
    ConstantOp,
    ReturnOp,
    YieldOp,
    TaskOp,
    DispatchOp,
)


def _is_task_worthy(op: Operation) -> bool:
    """Whether an op should be wrapped into its own task."""
    if isinstance(op, _NON_TASK_OPS):
        return False
    if isinstance(op, linalg.FillOp):
        return False
    if isinstance(op, (AffineForOp, linalg.LinalgOp)):
        return True
    # Other side-effecting ops (e.g. memref.copy) are also kept in tasks.
    return op.name in ("memref.copy",)


def _is_iterative(op: Operation) -> bool:
    """Iterative ops define iteration spaces: loops and structured linalg ops."""
    return isinstance(op, (AffineForOp, linalg.LinalgOp)) and not isinstance(
        op, linalg.FillOp
    )


def _is_dispatchable(block: Block) -> bool:
    """A region is dispatchable if it holds at least two iterative operations."""
    iterative = [op for op in block.operations if _is_iterative(op)]
    return len(iterative) >= 2


def _values_escaping(ops: Sequence[Operation]) -> Tuple[Set[int], List[Value]]:
    """The ids of ``ops`` and their nests, and the values they define that are
    used outside them, from one walk of each op."""
    nested_ops = [nested for op in ops for nested in op.walk()]
    op_set = {id(nested) for nested in nested_ops}
    escaping = [
        result
        for nested in nested_ops
        for result in nested.results
        if any(id(user) not in op_set for user, _ in result.uses)
    ]
    return op_set, escaping


def wrap_ops_in_task(ops: Sequence[Operation], label: str = "") -> TaskOp:
    """Wrap consecutive ops into a new ``hida.task`` (the paper's wrap_ops).

    Values defined by the wrapped ops that are used outside become results of
    the task (yielded by its terminator), preserving SSA def-use discipline.
    """
    if not ops:
        raise ValueError("cannot wrap an empty op list")
    block = ops[0].parent
    if block is None or any(op.parent is not block for op in ops):
        raise ValueError("ops to wrap must live in the same block")
    op_set, escaping = _values_escaping(ops)
    task = TaskOp.create(result_types=[v.type for v in escaping], label=label)
    # Insert the task right before the first wrapped op.
    ordered = sorted(ops, key=block.index_of)
    task_block = task.body
    block.insert(block.index_of(ordered[0]), task)
    for op in ordered:
        task_block.append(op)
    # Redirect external uses of escaping values to the task results *before*
    # creating the yield, so the yield keeps referencing the inner values.
    for value, result in zip(escaping, task.results):
        result.name_hint = value.name_hint
        value.replace_uses_if(
            result, lambda user: id(user) not in op_set and user is not task
        )
    task_block.append(YieldOp.create(escaping))
    return task


def wrap_block_in_dispatch(block: Block, label: str = "") -> DispatchOp:
    """Wrap all task-worthy ops of ``block`` in a single ``hida.dispatch``."""
    wrappable = [op for op in block.operations if _is_task_worthy(op) or isinstance(op, TaskOp)]
    if not wrappable:
        raise ValueError("block has no wrappable operations")
    op_set, escaping = _values_escaping(wrappable)
    dispatch = DispatchOp.create(result_types=[v.type for v in escaping])
    if label:
        dispatch.set_attr("label", label)
    # ``wrappable`` is in block order.
    block.insert(block.index_of(wrappable[0]), dispatch)
    body = dispatch.body
    for op in wrappable:
        body.append(op)
    for value, result in zip(escaping, dispatch.results):
        result.name_hint = value.name_hint
        value.replace_uses_if(
            result, lambda user: id(user) not in op_set and user is not dispatch
        )
    body.append(YieldOp.create(escaping))
    return dispatch


def construct_functional_dataflow(module: ModuleOp) -> int:
    """Algorithm 1: build the Functional dataflow of every function.

    Walks ops that own regions in post-order; every dispatchable region gets
    wrapped in a dispatch whose ops are each wrapped in their own task.
    Returns the number of dispatch ops created.
    """
    created = 0
    for func in module.functions:
        _hoist_leaf_definitions(func.entry_block)
        # Post-order walk over region-owning ops (innermost regions first).
        candidates: List[Tuple[Operation, Block]] = []
        for op in func.walk():
            if isinstance(op, (TaskOp, DispatchOp)):
                continue
            for region in op.regions:
                for block in region.blocks:
                    candidates.append((op, block))
        # func itself is visited through the walk (walk includes func? it does
        # not include the module); ensure the function body is considered last.
        for op, block in candidates:
            if (
                (op is func or isinstance(op, (AffineForOp, FuncOp)))
                and _is_dispatchable(block)
                and not _already_dispatched(block)
            ):
                dispatch = wrap_block_in_dispatch(block)
                created += 1
                for child in list(dispatch.body.operations):
                    if _is_task_worthy(child):
                        wrap_ops_in_task([child], label=_label_for(child))
    return created


def _hoist_leaf_definitions(block: Block) -> None:
    """Move operand-less definitions (weights, constants, allocs) to the top.

    Frontends interleave weight definitions with compute ops; hoisting them
    keeps all shared definitions in the transparent global context above the
    dispatch so every task can reference them.
    """
    leaves = [
        op
        for op in block.operations
        if isinstance(op, (AllocOp, GetGlobalOp, ConstantOp, linalg.FillOp))
        and op.num_operands == 0
    ]
    for position, op in enumerate(leaves):
        op.detach()
        block.insert(position, op)


def _already_dispatched(block: Block) -> bool:
    return any(isinstance(op, DispatchOp) for op in block.operations)


def _label_for(op: Operation) -> str:
    if isinstance(op, linalg.LinalgOp):
        return op.get_attr("layer", op.name.split(".")[-1])
    if isinstance(op, AffineForOp):
        hint = op.induction_variable.name_hint or "loop"
        return f"band_{hint}"
    return op.name.split(".")[-1]


# ---------------------------------------------------------------------------
# Task fusion (Algorithm 2)
# ---------------------------------------------------------------------------


def task_intensity(task: TaskOp) -> int:
    """Computation intensity of a task (scalar ops, or linalg op cost)."""
    total = 0
    for op in task.walk():
        if isinstance(op, linalg.LinalgOp):
            total += op.num_scalar_ops()
    if total:
        return total
    return node_intensity(task)


def _producer_task(task: TaskOp) -> Optional[TaskOp]:
    """The *latest* preceding task producing one of this task's used values.

    Fusing into the latest producer keeps every other producer ahead of the
    fused task, so def-use order stays valid (important for multi-producer
    consumers such as residual adds).
    """
    block = task.parent
    if block is None:
        return None
    producers: List[TaskOp] = []
    for operand_value in _external_values_used(task):
        defining = operand_value.defining_op
        if isinstance(defining, TaskOp) and defining.parent is block:
            producers.append(defining)
    if not producers:
        return None
    return max(producers, key=block.index_of)


def _external_values_used(task: TaskOp) -> List[Value]:
    nested_ops = list(task.walk())
    inside = {id(op) for op in nested_ops}
    return [
        operand
        for op in nested_ops
        for operand in op.operands
        if operand.defining_op is not None and id(operand.defining_op) not in inside
    ]


def _match_elementwise(task: TaskOp) -> Optional[TaskOp]:
    """Fuse a purely elementwise task into its producer task.

    This is the classic conv+ReLU / conv+BN fusion: the elementwise consumer
    adds negligible intensity while removing an inter-task buffer.
    """
    payload = task.payload_ops()
    if not payload:
        return None
    for op in payload:
        if isinstance(op, linalg.LinalgOp):
            if not op.is_elementwise and not isinstance(
                op, (linalg.MaxPool2DOp, linalg.AvgPool2DOp, linalg.ReshapeOp)
            ):
                return None
        else:
            return None
    return _producer_task(task)


def _memrefs_accessed(op: Operation) -> Tuple[List[Value], List[Value]]:
    """The memrefs ``op``'s nest loads from and stores to, from one walk."""
    reads: List[Value] = []
    writes: List[Value] = []
    for nested in op.walk():
        if nested.name == "affine.load":
            reads.append(nested.memref)
        elif nested.name == "affine.store":
            writes.append(nested.memref)
    return reads, writes


def _match_init(task: TaskOp) -> Optional[TaskOp]:
    """Fuse a zero-initialization loop band into the compute band it feeds.

    PolyBench kernels commonly initialize an accumulator array in one loop
    band and accumulate into it in the next; keeping them in separate
    dataflow tasks wastes a pipeline stage and an inter-task buffer.
    """
    payload = task.payload_ops()
    if len(payload) != 1 or not isinstance(payload[0], AffineForOp):
        return None
    band_ops = list(payload[0].walk())
    if any(
        op.name in ("arith.mulf", "arith.addf", "arith.mac", "arith.muli")
        for op in band_ops
    ):
        return None
    # Only pure *initialization* bands qualify: every stored value must be
    # a compile-time constant.  Bands that move data between buffers
    # (tile loads / stores) are real dataflow stages and stay separate.
    stores = [op for op in band_ops if op.name == "affine.store"]
    if not stores:
        return None
    for store in stores:
        stored = store.value
        if stored.defining_op is None or stored.defining_op.name != "arith.constant":
            return None
    # Fuse with the next task that uses one of the buffers it writes.
    written = {id(store.memref) for store in stores}
    block = task.parent
    if block is None:
        return None
    after = False
    for sibling in block.operations:
        if sibling is task:
            after = True
            continue
        if after and isinstance(sibling, TaskOp):
            reads, writes = _memrefs_accessed(sibling)
            if any(id(memref) in written for memref in reads + writes):
                return sibling
    return None


#: The pre-defined profitable fusion patterns, in application order: the
#: name pipeline specs use (``fuse-tasks{patterns=elementwise,init}``) ->
#: a match function that returns the adjacent task to fuse the given task
#: with (its producer or consumer), or None when the pattern does not apply.
FUSION_PATTERNS: Dict[str, Callable[[TaskOp], Optional[TaskOp]]] = {
    "elementwise": _match_elementwise,
    "init": _match_init,
}


def _tasks_connected(first: TaskOp, second: TaskOp) -> bool:
    """Whether two tasks exchange data (SSA results or shared memrefs)."""
    for result in first.results:
        if any(second.is_ancestor_of(user) or user is second for user in result.users):
            return True
    first_reads, first_writes = _memrefs_accessed(first)
    second_reads, second_writes = _memrefs_accessed(second)
    written = {id(memref) for memref in first_writes}
    if any(id(memref) in written for memref in second_reads + second_writes):
        return True
    read = {id(memref) for memref in first_reads}
    return any(id(memref) in read for memref in second_writes)


def fuse_tasks(first: TaskOp, second: TaskOp) -> TaskOp:
    """Fuse two tasks of the same dispatch into one (earlier task absorbs).

    The fused task takes the earlier task's place and holds the earlier
    payload, then the later one; results of both that are still used
    externally are re-yielded from it.
    """
    block = first.parent
    if block is None or second.parent is not block:
        raise ValueError("tasks must live in the same dispatch region")
    if block.index_of(first) > block.index_of(second):
        first, second = second, first
    first_yield, second_yield = first.yield_op, second.yield_op
    first_yields = list(first_yield.operands) if first_yield else []
    second_yields = list(second_yield.operands) if second_yield else []

    # Uses of the first task's results in the second's payload become the
    # inner values (they will share a region).
    for result, inner in zip(first.results, first_yields):
        result.replace_uses_if(
            inner, lambda user: user is not second_yield and second.is_ancestor_of(user)
        )

    # Every result of either task still used is used outside both payloads
    # (a task's payload cannot use its own or a later task's results), so it
    # must be re-yielded.
    new_yield_values: List[Value] = []
    replacements: List[Tuple[Value, int]] = []
    for task, yields in ((first, first_yields), (second, second_yields)):
        for result, inner in zip(task.results, yields):
            if result.has_uses:
                replacements.append((result, len(new_yield_values)))
                new_yield_values.append(inner)

    label = "+".join(x for x in (first.label, second.label) if x)
    fused = TaskOp.create(result_types=[v.type for v in new_yield_values], label=label)
    block.insert(block.index_of(first), fused)
    body = fused.body
    for op in first.payload_ops() + second.payload_ops():
        body.append(op)
    body.append(YieldOp.create(new_yield_values))
    for value, index in replacements:
        value.replace_all_uses_with(fused.results[index])

    # Clean up the now-empty original tasks.
    for task, yield_op in ((second, second_yield), (first, first_yield)):
        if yield_op is not None:
            yield_op.set_operands([])
        for result in task.results:
            if result.has_uses:
                raise RuntimeError("fusion left dangling uses on a task result")
        task.results = []
        task.erase()
    return fused


def fuse_dataflow_tasks(
    module: ModuleOp,
    patterns: Optional[Sequence[str]] = None,
    balance: bool = True,
) -> int:
    """Algorithm 2: pattern-driven worklist fusion plus criticality balancing.

    ``patterns`` names :data:`FUSION_PATTERNS` entries (default: all of
    them).  Returns the number of fusions performed.

    Each task is matched and measured once.  A fusion replaces its two tasks
    with a new :class:`TaskOp` and changes no other task's payload, producers
    or later readers: the fused task takes the earlier task's place, so
    accesses only move earlier.  A task no pattern matched therefore stays
    unmatched, and an unchanged task keeps its intensity and its
    connectivity to a neighbour, until it is fused itself.  Within one
    dispatch those answers are kept per task object (and per adjacent pair);
    the tables hold the tasks, so no id is reused while they live.  The
    worklist still restarts from the first task after every fusion, so the
    fusion sequence is that of a full rescan.
    """
    names = FUSION_PATTERNS if patterns is None else patterns
    matchers = [FUSION_PATTERNS[name] for name in names]
    fusions = 0
    for dispatch in list(module.walk_ops(DispatchOp)):
        # --- pattern-driven worklist (lines 2-6) --------------------------
        unmatched: Set[TaskOp] = set()
        changed = True
        while changed:
            changed = False
            for task in dispatch.tasks:
                if task in unmatched:
                    continue
                for match in matchers:
                    partner = match(task)
                    if partner is not None and partner.parent is task.parent:
                        fuse_tasks(partner, task)
                        fusions += 1
                        changed = True
                        break
                if changed:
                    break
                unmatched.add(task)

        # --- least-critical balancing (lines 7-9) --------------------------
        if balance:
            intensity: Dict[TaskOp, int] = {}
            connected: Dict[Tuple[TaskOp, TaskOp], bool] = {}
            while True:
                tasks = dispatch.tasks
                if len(tasks) < 3:
                    break
                for task in tasks:
                    if task not in intensity:
                        intensity[task] = task_intensity(task)
                critical = max(intensity[t] for t in tasks)
                # Find the connected adjacent pair with the smallest combined
                # intensity.  Fusion of unconnected tasks saves nothing (they
                # already run concurrently) so it is not considered profitable.
                best_pair = None
                best_sum = None
                for pair in zip(tasks, tasks[1:]):
                    if pair not in connected:
                        connected[pair] = _tasks_connected(*pair)
                    if not connected[pair]:
                        continue
                    combined = intensity[pair[0]] + intensity[pair[1]]
                    if best_sum is None or combined < best_sum:
                        best_sum = combined
                        best_pair = pair
                if best_pair is None or best_sum is None:
                    break
                if best_sum > critical:
                    break  # fusion would create a new critical task
                fuse_tasks(*best_pair)
                fusions += 1

        simplify_dispatch_hierarchy(dispatch)
    return fusions
