"""Canonicalization: dead code elimination and dataflow hierarchy cleanup."""

from __future__ import annotations


from ..dialects.dataflow import DispatchOp, TaskOp, YieldOp
from ..ir.builtin import FuncOp, ModuleOp
from ..ir.core import Operation

__all__ = [
    "eliminate_dead_code",
    "simplify_dispatch_hierarchy",
]

#: Operations that have observable effects and must never be removed even if
#: their results are unused.
_SIDE_EFFECT_OPS = {
    "affine.store",
    "memref.store",
    "memref.copy",
    "memref.dealloc",
    "func.return",
    "affine.yield",
    "scf.yield",
    "hida.yield",
    "hida.stream_write",
    "hida.pack",
    "hida.bundle",
}


def eliminate_dead_code(top: Operation, max_iterations: int = 8) -> int:
    """Erase ops whose results are unused and that have no side effects.

    An op has side effects when it, or anything nested in it, is one of
    :data:`_SIDE_EFFECT_OPS`.  Returns the number of erased operations.
    """
    erased_total = 0
    for _ in range(max_iterations):
        erased = 0
        # Post-order yields an op after everything nested in it, so an effectful
        # op marks its parent on the way up.  The marks stay exact through the
        # sweep's own erasures: an erased op was effect-free and left no mark.
        effectful = set()
        for op in list(top.walk()):
            if op.name in _SIDE_EFFECT_OPS or op in effectful:
                effectful.add(op.parent_op)
                continue
            if op is top or op.parent is None:
                continue
            if isinstance(op, (FuncOp, ModuleOp)):
                continue
            if any(result.has_uses for result in op.results):
                continue
            op.erase()
            erased += 1
        erased_total += erased
        if not erased:
            break
    return erased_total


def simplify_dispatch_hierarchy(dispatch: DispatchOp) -> None:
    """Canonicalize the dispatch/task hierarchy.

    A task whose body contains only a single nested task (plus the yield) is
    flattened: the inner task's contents are inlined into the outer task.
    A dispatch containing a single task keeps its structure (it still marks a
    legal dataflow region), matching Algorithm 2 line 10.
    """
    changed = True
    while changed:
        changed = False
        for task in dispatch.walk_ops(TaskOp):
            payload = task.payload_ops()
            if len(payload) == 1 and isinstance(payload[0], TaskOp):
                inner: TaskOp = payload[0]
                inner_yield = inner.yield_op
                yielded = list(inner_yield.operands) if inner_yield else []
                for op in list(inner.body.operations):
                    if isinstance(op, YieldOp):
                        continue
                    op.detach()
                    op.move_before(inner)
                if inner.num_results:
                    inner.replace_all_uses_with(yielded)
                inner.erase()
                changed = True
                break
