"""Functional dataflow construction and task fusion (Algorithms 1 and 2).

Functional dataflow construction walks the IR bottom-up, wraps every
*dispatchable* region with a ``hida.dispatch`` op and every task-worthy
operation with its own ``hida.task``.  A region is dispatchable when it is
owned by an iterative operation (a loop or a function) and contains at least
two iterative operations that can execute in a dataflow manner.

Task fusion then (a) applies pre-defined profitable fusion patterns (e.g.
fuse elementwise operations into their producers) through a worklist, and
(b) keeps fusing the two least-critical adjacent tasks until fusion would
create a new critical task, rebalancing the dataflow.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
    "FusionPattern",
    "ElementwiseFusionPattern",
    "InitializationFusionPattern",
    "default_fusion_patterns",
    "fusion_patterns_by_name",
    "fusion_pattern_name",
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


def _values_escaping(ops: Sequence[Operation]) -> List[Value]:
    """Values defined by ``ops`` (or their nests) that are used outside them."""
    op_set = set()
    for op in ops:
        for nested in op.walk():
            op_set.add(id(nested))
    escaping: List[Value] = []
    for op in ops:
        for nested in op.walk():
            for result in nested.results:
                if any(id(user) not in op_set for user in result.users):
                    escaping.append(result)
    return escaping


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
    escaping = _values_escaping(ops)
    task = TaskOp.create(result_types=[v.type for v in escaping], label=label)
    # Insert the task right before the first wrapped op.
    first = min(ops, key=lambda op: block.index_of(op))
    task_block = task.body
    block.insert(block.index_of(first), task)
    ordered = sorted(ops, key=lambda op: block.index_of(op))
    for op in ordered:
        op.detach()
        task_block.append(op)
    # Redirect external uses of escaping values to the task results *before*
    # creating the yield, so the yield keeps referencing the inner values.
    op_set = set()
    for op in ops:
        for nested in op.walk():
            op_set.add(id(nested))
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
    escaping = _values_escaping(wrappable)
    dispatch = DispatchOp.create(result_types=[v.type for v in escaping])
    if label:
        dispatch.set_attr("label", label)
    first = min(wrappable, key=lambda op: block.index_of(op))
    block.insert(block.index_of(first), dispatch)
    body = dispatch.body
    for op in sorted(wrappable, key=lambda op: block.index_of(op)):
        op.detach()
        body.append(op)
    op_set = set()
    for op in wrappable:
        for nested in op.walk():
            op_set.add(id(nested))
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


class FusionPattern:
    """A profitable task-fusion pattern.

    ``match`` receives a task and returns the adjacent task it should be
    fused with (its producer or consumer), or None when the pattern does not
    apply.
    """

    name = "fusion"

    def match(self, task: TaskOp) -> Optional[TaskOp]:
        raise NotImplementedError


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
    inside = set()
    for op in task.walk():
        inside.add(id(op))
    used: List[Value] = []
    for op in task.walk():
        for operand in op.operands:
            defining = operand.defining_op
            if defining is not None and id(defining) not in inside:
                used.append(operand)
    return used


class ElementwiseFusionPattern(FusionPattern):
    """Fuse a purely elementwise task into its producer task.

    This is the classic conv+ReLU / conv+BN fusion: the elementwise consumer
    adds negligible intensity while removing an inter-task buffer.
    """

    name = "elementwise-fusion"

    def match(self, task: TaskOp) -> Optional[TaskOp]:
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


class InitializationFusionPattern(FusionPattern):
    """Fuse a zero-initialization loop band into the compute band it feeds.

    PolyBench kernels commonly initialize an accumulator array in one loop
    band and accumulate into it in the next; keeping them in separate
    dataflow tasks wastes a pipeline stage and an inter-task buffer.
    """

    name = "init-fusion"

    def match(self, task: TaskOp) -> Optional[TaskOp]:
        payload = task.payload_ops()
        if len(payload) != 1 or not isinstance(payload[0], AffineForOp):
            return None
        band_root = payload[0]
        has_compute = any(
            op.name in ("arith.mulf", "arith.addf", "arith.mac", "arith.muli")
            for op in band_root.walk()
        )
        if has_compute:
            return None
        # Only pure *initialization* bands qualify: every stored value must be
        # a compile-time constant.  Bands that move data between buffers
        # (tile loads / stores) are real dataflow stages and stay separate.
        stores = [op for op in band_root.walk() if op.name == "affine.store"]
        if not stores:
            return None
        for store in stores:
            stored = store.value
            if stored.defining_op is None or stored.defining_op.name != "arith.constant":
                return None
        # Fuse with the next task that uses one of the buffers it writes.
        written = [store.memref for store in stores]
        block = task.parent
        if block is None:
            return None
        after = False
        for sibling in block.operations:
            if sibling is task:
                after = True
                continue
            if after and isinstance(sibling, TaskOp):
                reads = [
                    op.memref for op in sibling.walk() if op.name == "affine.load"
                ] + [op.memref for op in sibling.walk() if op.name == "affine.store"]
                if any(any(w is r for r in reads) for w in written):
                    return sibling
        return None


def _memrefs_written(task: TaskOp) -> List[Value]:
    return [op.memref for op in task.walk() if op.name == "affine.store"]


def _memrefs_read(task: TaskOp) -> List[Value]:
    return [op.memref for op in task.walk() if op.name == "affine.load"]


def _tasks_connected(first: TaskOp, second: TaskOp) -> bool:
    """Whether two tasks exchange data (SSA results or shared memrefs)."""
    for result in first.results:
        if any(second.is_ancestor_of(user) or user is second for user in result.users):
            return True
    written = _memrefs_written(first)
    touched = _memrefs_read(second) + _memrefs_written(second)
    if any(any(w is t for t in touched) for w in written):
        return True
    written_second = _memrefs_written(second)
    read_first = _memrefs_read(first)
    return any(any(w is r for r in read_first) for w in written_second)


def default_fusion_patterns() -> List[FusionPattern]:
    """The pre-defined profitable fusion pattern set used by HIDA."""
    return [ElementwiseFusionPattern(), InitializationFusionPattern()]


#: Spec-level short names of the stock fusion patterns (what pipeline specs
#: like ``fuse-tasks{patterns=elementwise,init}`` refer to).
_FUSION_PATTERN_SHORT_NAMES = {
    "elementwise": ElementwiseFusionPattern,
    "init": InitializationFusionPattern,
}


def fusion_patterns_by_name() -> dict:
    """Fresh pattern instances keyed by every accepted name.

    Both the short spec names (``elementwise``, ``init``) and the pattern
    class names (``ElementwiseFusionPattern``, ...) resolve in textual
    pipeline specs.
    """
    by_name = {name: cls() for name, cls in _FUSION_PATTERN_SHORT_NAMES.items()}
    for pattern in default_fusion_patterns():
        by_name[type(pattern).__name__] = pattern
    return by_name


def fusion_pattern_name(pattern: FusionPattern) -> str:
    """Canonical short name of a pattern (class name for custom patterns)."""
    for name, cls in _FUSION_PATTERN_SHORT_NAMES.items():
        if type(pattern) is cls:
            return name
    return type(pattern).__name__


def fuse_tasks(first: TaskOp, second: TaskOp) -> TaskOp:
    """Fuse two tasks of the same dispatch into one (earlier task absorbs).

    The later task's payload is appended to the earlier one; results of both
    that are still used externally are re-yielded from the fused task.
    """
    block = first.parent
    if block is None or second.parent is not block:
        raise ValueError("tasks must live in the same dispatch region")
    if block.index_of(first) > block.index_of(second):
        first, second = second, first

    # Map: result of either task -> the value yielded inside.
    def yielded_values(task: TaskOp) -> List[Value]:
        yield_op = task.yield_op
        return list(yield_op.operands) if yield_op else []

    first_yields = yielded_values(first)
    second_yields = yielded_values(second)

    # Move the second task's payload into the first (before first's yield).
    first_yield_op = first.yield_op
    insertion_index = first.body.index_of(first_yield_op) if first_yield_op else len(first.body)
    for op in list(second.body.operations):
        if isinstance(op, YieldOp):
            continue
        op.detach()
        first.body.insert(insertion_index, op)
        insertion_index += 1

    # Second task's operands referencing first-task results become the inner
    # values (they are now in the same region).
    for result, inner in zip(first.results, first_yields):
        result.replace_uses_if(inner, lambda user: first.is_ancestor_of(user))

    # Build the fused result list: any result of either task still used
    # externally must be re-yielded.
    new_yield_values: List[Value] = []
    replacements: List[Tuple[Value, int]] = []
    for task, yields in ((first, first_yields), (second, second_yields)):
        for result, inner in zip(task.results, yields):
            external_users = [u for u in result.users if not first.is_ancestor_of(u)]
            if external_users:
                replacements.append((result, len(new_yield_values)))
                new_yield_values.append(inner)

    label = "+".join(x for x in (first.label, second.label) if x)
    fused = TaskOp.create(result_types=[v.type for v in new_yield_values], label=label)
    block.insert(block.index_of(first), fused)
    for op in list(first.body.operations):
        if isinstance(op, YieldOp):
            continue
        op.detach()
        fused.body.append(op)
    fused.body.append(YieldOp.create(new_yield_values))
    for value, index in replacements:
        value.replace_all_uses_with(fused.results[index])

    # Clean up the now-empty original tasks.
    for task in (second, first):
        if task.yield_op is not None:
            task.yield_op.set_operands([])
        for result in task.results:
            if result.has_uses:
                raise RuntimeError("fusion left dangling uses on a task result")
        task.results = []
        task.erase()
    return fused


def fuse_dataflow_tasks(
    module: ModuleOp,
    patterns: Optional[Sequence[FusionPattern]] = None,
    balance: bool = True,
) -> int:
    """Algorithm 2: pattern-driven worklist fusion plus criticality balancing.

    Returns the number of fusions performed.
    """
    patterns = list(patterns) if patterns is not None else default_fusion_patterns()
    fusions = 0
    for dispatch in list(module.walk_ops(DispatchOp)):
        # --- pattern-driven worklist (lines 2-6) --------------------------
        changed = True
        while changed:
            changed = False
            for task in list(dispatch.tasks):
                if task.parent is None:
                    continue
                for pattern in patterns:
                    partner = pattern.match(task)
                    if partner is not None and partner.parent is task.parent:
                        fuse_tasks(partner, task)
                        fusions += 1
                        changed = True
                        break
                if changed:
                    break

        # --- least-critical balancing (lines 7-9) --------------------------
        if balance:
            while True:
                tasks = dispatch.tasks
                if len(tasks) < 3:
                    break
                critical = max(task_intensity(t) for t in tasks)
                # Find the connected adjacent pair with the smallest combined
                # intensity.  Fusion of unconnected tasks saves nothing (they
                # already run concurrently) so it is not considered profitable.
                best_pair = None
                best_sum = None
                for a, b in zip(tasks, tasks[1:]):
                    if not _tasks_connected(a, b):
                        continue
                    combined = task_intensity(a) + task_intensity(b)
                    if best_sum is None or combined < best_sum:
                        best_sum = combined
                        best_pair = (a, b)
                if best_pair is None or best_sum is None:
                    break
                if best_sum > critical:
                    break  # fusion would create a new critical task
                fuse_tasks(*best_pair)
                fusions += 1

        simplify_dispatch_hierarchy(dispatch)
    return fusions
