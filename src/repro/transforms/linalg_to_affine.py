"""Lowering of linalg (tensor-level) operations to affine loop nests.

This conversion performs bufferization (tensors become memrefs) and expands
every named linalg op into the affine loop nest its class declares (see
:mod:`repro.dialects.linalg`) with explicit loads/stores, mirroring MLIR's
linalg-to-affine-loops path.  One nest builder serves every op; only the
loop body differs, one small builder per kind.  It runs after Functional
dataflow construction so the loop nests stay inside their enclosing
``hida.task`` regions; the Structural lowering then converts tasks into
nodes over the generated buffers.

Weight tensors produced by ``linalg.fill`` become module-level globals
placed in external memory (``memref.get_global``) rather than compute
loops.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..dialects import linalg
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.affine_map import AffineExpr, AffineMap, dim
from ..dialects.arith import AddFOp, MaxFOp, MulFOp
from ..dialects.dataflow import YieldOp
from ..dialects.memref import AllocOp, GetGlobalOp
from ..ir.builder import Builder, InsertionPoint
from ..ir.builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from ..ir.core import Value
from ..ir.types import FunctionType, MemRefType, TensorType

__all__ = ["lower_linalg_to_affine", "unlowered_op_error"]


def unlowered_op_error(op: linalg.LinalgOp, stage: str) -> Exception:
    """The error of ``stage`` meeting ``op``, which only ``lower-linalg``
    turns into the loop nests the stage works on."""
    from ..compiler.spec import PipelineSpecError  # the compiler imports this module

    return PipelineSpecError(
        f"stage {stage!r} reached the unlowered op {op.name!r}: "
        f"the pipeline lacks 'lower-linalg' before {stage!r}"
    )


class _LoweringContext:
    """Tracks the tensor-value to memref-value mapping during lowering."""

    def __init__(self, func: FuncOp) -> None:
        self.func = func
        self.memref_of: Dict[int, Value] = {}
        self._global_count = 0
        #: Insertion point for buffer allocations: the top of the function so
        #: buffers are visible to every task that produces or consumes them.
        self.alloc_builder = Builder.at_start(func.entry_block)

    def map(self, tensor: Value, memref: Value) -> None:
        self.memref_of[id(tensor)] = memref

    def lookup(self, tensor: Value) -> Value:
        """Resolve a tensor to its buffer, looking through task/dispatch results."""
        if id(tensor) in self.memref_of:
            return self.memref_of[id(tensor)]
        if isinstance(tensor.type, MemRefType):
            return tensor  # already a buffer (e.g. rewritten container results)
        defining = tensor.defining_op
        if defining is not None and defining.regions:
            # A task or dispatch result: chase the corresponding yielded value.
            terminator = defining.regions[0].entry_block.last_op
            if terminator is not None and terminator.num_operands > getattr(tensor, "index", -1):
                yielded = terminator.operand(tensor.index)
                resolved = self.lookup(yielded)
                self.memref_of[id(tensor)] = resolved
                return resolved
        raise KeyError(f"no buffer allocated for tensor {tensor!r}")

    def next_global_name(self, label: str) -> str:
        self._global_count += 1
        return f"{label}_{self._global_count}"


def _alloc_buffer(
    builder: Builder, tensor_type: TensorType, name_hint: str, memory_space: str = "bram"
) -> Value:
    memref_type = MemRefType(tensor_type.shape, tensor_type.element_type, memory_space)
    alloc = builder.insert(AllocOp.create(memref_type, name_hint=name_hint))
    return alloc.result()


def _build_loop_nest(
    builder: Builder, bounds: Sequence[int], names: Sequence[str]
) -> Tuple[List[AffineForOp], List[Value], Builder]:
    """Create a perfect loop nest; returns loops, IVs and the innermost builder."""
    loops: List[AffineForOp] = []
    ivs: List[Value] = []
    current = builder
    for bound, name in zip(bounds, names):
        loop = current.insert(AffineForOp.create(0, max(int(bound), 1), name_hint=name))
        loops.append(loop)
        ivs.append(loop.induction_variable)
        current = Builder.at_end(loop.body)
    return loops, ivs, current


def _access(
    builder: Builder,
    memref: Value,
    ivs: Sequence[Value],
    exprs: Sequence[AffineExpr],
) -> Value:
    """Emit an affine.load with the access map given by ``exprs`` over ``ivs``."""
    access_map = AffineMap(len(ivs), list(exprs))
    op = builder.insert(AffineLoadOp.create(memref, list(ivs), access_map))
    return op.result()


def _store(
    builder: Builder,
    value: Value,
    memref: Value,
    ivs: Sequence[Value],
    exprs: Sequence[AffineExpr],
) -> None:
    access_map = AffineMap(len(ivs), list(exprs))
    builder.insert(AffineStoreOp.create(value, memref, list(ivs), access_map))


def _arith(builder: Builder, op_cls, *args) -> Value:
    return builder.insert(op_cls.create(*args)).result()


# Loop bodies, one per kind: each takes the loaded operands (then, in a nest
# with reduction loops, the loaded output) and returns the value to store.


def _mac(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    x, w, acc = values
    return _arith(builder, AddFOp, acc, _arith(builder, MulFOp, x, w))


def _max_accumulate(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    x, acc = values
    return _arith(builder, MaxFOp, acc, x)


def _avg_accumulate(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    x, acc = values
    scale = _arith(builder, ConstantOp, 1.0 / float(op.kernel * op.kernel), x.type)
    return _arith(builder, AddFOp, acc, _arith(builder, MulFOp, x, scale))


def _add(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    lhs, rhs = values
    return _arith(builder, AddFOp, lhs, rhs)


def _relu(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    (x,) = values
    return _arith(builder, MaxFOp, x, _arith(builder, ConstantOp, 0.0, x.type))


def _scale_shift(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    x, scale, shift = values
    return _arith(builder, AddFOp, _arith(builder, MulFOp, x, scale), shift)


def _copy(builder: Builder, op: linalg.LinalgOp, values: List[Value]) -> Value:
    (x,) = values
    return x


_BODIES: Dict[type, Callable[[Builder, linalg.LinalgOp, List[Value]], Value]] = {
    linalg.Conv2DOp: _mac,
    linalg.DepthwiseConv2DOp: _mac,
    linalg.LinearOp: _mac,
    linalg.MaxPool2DOp: _max_accumulate,
    linalg.AvgPool2DOp: _avg_accumulate,
    linalg.AddOp: _add,
    linalg.ReluOp: _relu,
    linalg.BatchNormOp: _scale_shift,
    linalg.ReshapeOp: _copy,
}


def _lower_op(op: linalg.LinalgOp, ctx: _LoweringContext, builder: Builder) -> Value:
    """Lower one linalg op into the loop nest it declares; returns its output buffer."""
    if isinstance(op, linalg.FillOp):
        # Weights / constants become external globals, not compute loops.
        tensor_type: TensorType = op.result().type
        memref_type = MemRefType(tensor_type.shape, tensor_type.element_type, "dram")
        global_op = ctx.alloc_builder.insert(
            GetGlobalOp.create(ctx.next_global_name(op.get_attr("label", "weight")), memref_type)
        )
        ctx.map(op.result(), global_op.result())
        return global_op.result()

    body = _BODIES.get(type(op))
    if body is None:
        raise NotImplementedError(f"no affine lowering for {op.name}")
    out = _alloc_buffer(ctx.alloc_builder, op.output_type, f"{op.name.split('.')[-1]}_out")
    bounds = op.loop_bounds()
    names = op.LOOP_NAMES or [f"d{i}" for i in range(len(bounds))]
    loops, ivs, inner = _build_loop_nest(builder, bounds, names)
    reads, write = op.accesses([dim(i) for i in range(len(bounds))])
    values = [_access(inner, ctx.lookup(operand), ivs, exprs) for operand, exprs in reads]
    parallel = len(loops) if op.PARALLEL_LOOPS is None else op.PARALLEL_LOOPS
    if parallel < len(loops):
        # Reduction loops carry a dependence through the output: they
        # accumulate into it and stay sequential.
        values.append(_access(inner, out, ivs, write))
    _store(inner, body(inner, op, values), out, ivs, write)
    for loop in loops[:parallel]:
        loop.set_parallel(True)
    ctx.map(op.result(), out)
    return out


def lower_linalg_to_affine(module: ModuleOp) -> ModuleOp:
    """Lower all linalg ops (in tasks or at function level) to affine loops.

    Tensors are bufferized: function tensor arguments become dram memrefs,
    intermediate tensors become on-chip allocations, and weights become
    external globals.  ``hida.task`` regions are preserved — the loops
    replace the linalg ops inside them.
    """
    for func in module.functions:
        ctx = _LoweringContext(func)
        # Rewrite function signature: tensor args -> dram memrefs.
        new_inputs = []
        for arg in func.entry_block.arguments:
            if isinstance(arg.type, TensorType):
                arg.type = MemRefType(arg.type.shape, arg.type.element_type, "dram")
            new_inputs.append(arg.type)
        func_type: FunctionType = func.function_type
        func.set_attr("function_type", FunctionType(new_inputs, ()))
        for arg in func.entry_block.arguments:
            ctx.map(arg, arg)

        # Collect linalg ops in program order (including those inside tasks).
        linalg_ops = [
            op for op in func.walk() if isinstance(op, linalg.LinalgOp)
        ]
        for op in linalg_ops:
            builder = Builder(InsertionPoint.before(op))
            _lower_op(op, ctx, builder)

        # Task/dispatch results were tensors; rewrite their consumers to use
        # the corresponding buffers, then drop the results and yields.
        container_ops = [
            op
            for op in func.walk()
            if op.name in ("hida.task", "hida.dispatch") and op.num_results
        ]
        for container in container_ops:
            for result in container.results:
                if result.has_uses:
                    result.replace_all_uses_with(ctx.lookup(result))
        for op in func.walk():
            if isinstance(op, (YieldOp, ReturnOp)) and op.num_operands:
                op.set_operands([])
        for container in container_ops:
            container.results = []
        # Erase the original linalg ops (in reverse order so uses vanish first).
        for op in reversed(linalg_ops):
            op.erase()
    return module
