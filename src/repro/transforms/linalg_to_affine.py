"""Lowering of linalg (tensor-level) operations to affine loop nests.

This conversion performs bufferization (tensors become memrefs) and expands
every named linalg op into an affine loop nest with explicit loads/stores,
mirroring MLIR's linalg-to-affine-loops path.  It runs after Functional
dataflow construction so the loop nests stay inside their enclosing
``hida.task`` regions; the Structural lowering then converts tasks into
nodes over the generated buffers.

Weight tensors produced by ``linalg.fill`` become module-level globals
placed in external memory (``memref.get_global``) rather than compute
loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import linalg
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.affine_map import AffineExpr, AffineMap, constant, dim
from ..dialects.arith import AddFOp, ExpOp, MaxFOp, MulFOp
from ..dialects.dataflow import YieldOp
from ..dialects.memref import AllocOp, GetGlobalOp
from ..ir.builder import Builder, InsertionPoint
from ..ir.builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from ..ir.core import Value
from ..ir.types import FunctionType, MemRefType, TensorType

__all__ = ["lower_linalg_to_affine"]


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
    access_map = AffineMap(len(ivs), 0, list(exprs))
    op = builder.insert(AffineLoadOp.create(memref, list(ivs), access_map))
    return op.result()


def _store(
    builder: Builder,
    value: Value,
    memref: Value,
    ivs: Sequence[Value],
    exprs: Sequence[AffineExpr],
) -> None:
    access_map = AffineMap(len(ivs), 0, list(exprs))
    builder.insert(AffineStoreOp.create(value, memref, list(ivs), access_map))


def _lower_conv2d(op: linalg.Conv2DOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    input_buf = ctx.lookup(op.input)
    weight_buf = ctx.lookup(op.weight)
    n, oc, oh, ow = op.output_type.shape
    _, ic, kh, kw = op.weight.type.shape
    stride, padding = op.stride, op.padding
    loops, ivs, inner = _build_loop_nest(
        builder, (n, oc, oh, ow, ic, kh, kw), ("n", "oc", "oh", "ow", "ic", "kh", "kw")
    )
    d = [dim(i) for i in range(7)]
    in_val = _access(
        inner,
        input_buf,
        ivs,
        [d[0], d[4], d[2] * stride + d[5] - padding, d[3] * stride + d[6] - padding],
    )
    w_val = _access(inner, weight_buf, ivs, [d[1], d[4], d[5], d[6]])
    out_val = _access(inner, out, ivs, [d[0], d[1], d[2], d[3]])
    product = inner.insert(MulFOp.create(in_val, w_val)).result()
    acc = inner.insert(AddFOp.create(out_val, product)).result()
    _store(inner, acc, out, ivs, [d[0], d[1], d[2], d[3]])
    # Reduction loops (ic, kh, kw) carry a dependence and cannot be trivially
    # parallelized; the spatial loops can.
    for loop in loops[:4]:
        loop.set_parallel(True)


def _lower_depthwise(op: linalg.DepthwiseConv2DOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    input_buf = ctx.lookup(op.input)
    weight_buf = ctx.lookup(op.weight)
    n, c, oh, ow = op.output_type.shape
    _, _, kh, kw = op.weight.type.shape
    stride, padding = op.stride, op.padding
    loops, ivs, inner = _build_loop_nest(
        builder, (n, c, oh, ow, kh, kw), ("n", "c", "oh", "ow", "kh", "kw")
    )
    d = [dim(i) for i in range(6)]
    in_val = _access(
        inner,
        input_buf,
        ivs,
        [d[0], d[1], d[2] * stride + d[4] - padding, d[3] * stride + d[5] - padding],
    )
    w_val = _access(inner, weight_buf, ivs, [d[1], constant(0), d[4], d[5]])
    out_val = _access(inner, out, ivs, [d[0], d[1], d[2], d[3]])
    product = inner.insert(MulFOp.create(in_val, w_val)).result()
    acc = inner.insert(AddFOp.create(out_val, product)).result()
    _store(inner, acc, out, ivs, [d[0], d[1], d[2], d[3]])
    for loop in loops[:4]:
        loop.set_parallel(True)


def _lower_pool(op, out: Value, ctx: _LoweringContext, builder: Builder, is_max: bool) -> None:
    input_buf = ctx.lookup(op.input)
    n, c, oh, ow = op.output_type.shape
    kernel, stride = op.kernel, op.stride
    padding = op.get_attr("padding", 0)
    loops, ivs, inner = _build_loop_nest(
        builder, (n, c, oh, ow, kernel, kernel), ("n", "c", "oh", "ow", "kh", "kw")
    )
    d = [dim(i) for i in range(6)]
    in_val = _access(
        inner,
        input_buf,
        ivs,
        [d[0], d[1], d[2] * stride + d[4] - padding, d[3] * stride + d[5] - padding],
    )
    out_val = _access(inner, out, ivs, [d[0], d[1], d[2], d[3]])
    if is_max:
        new_val = inner.insert(MaxFOp.create(out_val, in_val)).result()
    else:
        scale = inner.insert(
            ConstantOp.create(1.0 / float(kernel * kernel), in_val.type)
        ).result()
        scaled = inner.insert(MulFOp.create(in_val, scale)).result()
        new_val = inner.insert(AddFOp.create(out_val, scaled)).result()
    _store(inner, new_val, out, ivs, [d[0], d[1], d[2], d[3]])
    for loop in loops[:4]:
        loop.set_parallel(True)


def _lower_linear(op: linalg.LinearOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    input_buf = ctx.lookup(op.input)
    weight_buf = ctx.lookup(op.weight)
    n, of = op.output_type.shape
    in_features = op.input.type.shape[1]
    loops, ivs, inner = _build_loop_nest(builder, (n, of, in_features), ("n", "of", "if"))
    d = [dim(i) for i in range(3)]
    in_val = _access(inner, input_buf, ivs, [d[0], d[2]])
    w_val = _access(inner, weight_buf, ivs, [d[1], d[2]])
    out_val = _access(inner, out, ivs, [d[0], d[1]])
    product = inner.insert(MulFOp.create(in_val, w_val)).result()
    acc = inner.insert(AddFOp.create(out_val, product)).result()
    _store(inner, acc, out, ivs, [d[0], d[1]])
    for loop in loops[:2]:
        loop.set_parallel(True)


def _lower_matmul(op: linalg.MatmulOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    lhs_buf = ctx.lookup(op.lhs)
    rhs_buf = ctx.lookup(op.rhs)
    m, n = op.output_type.shape
    k = op.lhs.type.shape[1]
    loops, ivs, inner = _build_loop_nest(builder, (m, n, k), ("i", "j", "k"))
    d = [dim(i) for i in range(3)]
    lhs_val = _access(inner, lhs_buf, ivs, [d[0], d[2]])
    rhs_val = _access(inner, rhs_buf, ivs, [d[2], d[1]])
    out_val = _access(inner, out, ivs, [d[0], d[1]])
    product = inner.insert(MulFOp.create(lhs_val, rhs_val)).result()
    acc = inner.insert(AddFOp.create(out_val, product)).result()
    _store(inner, acc, out, ivs, [d[0], d[1]])
    for loop in loops[:2]:
        loop.set_parallel(True)


def _lower_elementwise(op: linalg.LinalgOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    shape = op.output_type.shape
    names = [f"d{i}" for i in range(len(shape))]
    loops, ivs, inner = _build_loop_nest(builder, shape, names)
    d = [dim(i) for i in range(len(shape))]
    identity = list(d)

    if isinstance(op, (linalg.AddOp, linalg.MulOp)):
        lhs = _access(inner, ctx.lookup(op.lhs), ivs, identity)
        rhs = _access(inner, ctx.lookup(op.rhs), ivs, identity)
        op_cls = AddFOp if isinstance(op, linalg.AddOp) else MulFOp
        result = inner.insert(op_cls.create(lhs, rhs)).result()
    elif isinstance(op, linalg.ReluOp):
        value = _access(inner, ctx.lookup(op.input), ivs, identity)
        zero = inner.insert(ConstantOp.create(0.0, value.type)).result()
        result = inner.insert(MaxFOp.create(value, zero)).result()
    elif isinstance(op, linalg.SoftmaxOp):
        value = _access(inner, ctx.lookup(op.input), ivs, identity)
        result = inner.insert(ExpOp.create(value)).result()
    elif isinstance(op, linalg.BatchNormOp):
        value = _access(inner, ctx.lookup(op.input), ivs, identity)
        channel_dim = d[1] if len(shape) >= 2 else d[0]
        scale = _access(inner, ctx.lookup(op.operand(1)), ivs, [channel_dim])
        shift = _access(inner, ctx.lookup(op.operand(2)), ivs, [channel_dim])
        scaled = inner.insert(MulFOp.create(value, scale)).result()
        result = inner.insert(AddFOp.create(scaled, shift)).result()
    else:  # pragma: no cover - guarded by dispatch table
        raise NotImplementedError(f"unsupported elementwise op {op.name}")
    _store(inner, result, out, ivs, identity)
    for loop in loops:
        loop.set_parallel(True)


def _delinearize(flat: AffineExpr, shape: Sequence[int]) -> List[AffineExpr]:
    """Row-major de-linearization into per-dimension index expressions."""
    exprs: List[AffineExpr] = []
    remaining = flat
    strides: List[int] = []
    stride = 1
    for size in reversed(shape):
        strides.append(stride)
        stride *= int(size)
    strides.reverse()
    for i, size in enumerate(shape):
        expr = (flat // strides[i]) % int(size) if i > 0 else flat // strides[i]
        exprs.append(expr)
    return exprs


def _lower_reshape(op: linalg.ReshapeOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    input_buf = ctx.lookup(op.input)
    in_shape = op.input.type.shape
    out_shape = op.output_type.shape
    total = op.output_type.num_elements
    loops, ivs, inner = _build_loop_nest(builder, (total,), ("flat",))
    flat = dim(0)
    in_exprs = _delinearize(flat, in_shape)
    out_exprs = _delinearize(flat, out_shape)
    value = _access(inner, input_buf, ivs, in_exprs)
    _store(inner, value, out, ivs, out_exprs)
    loops[0].set_parallel(True)


def _lower_concat(op: linalg.ConcatOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    axis = op.get_attr("axis", 1)
    offset = 0
    for operand in op.operands:
        in_shape = operand.type.shape
        names = [f"d{i}" for i in range(len(in_shape))]
        loops, ivs, inner = _build_loop_nest(builder, in_shape, names)
        d = [dim(i) for i in range(len(in_shape))]
        out_exprs: List[AffineExpr] = list(d)
        out_exprs[axis] = d[axis] + offset
        value = _access(inner, ctx.lookup(operand), ivs, list(d))
        _store(inner, value, out, ivs, out_exprs)
        offset += in_shape[axis]
        for loop in loops:
            loop.set_parallel(True)


def _lower_upsample(op: linalg.UpsampleOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    factor = op.get_attr("factor", 2)
    out_shape = op.output_type.shape
    names = [f"d{i}" for i in range(len(out_shape))]
    loops, ivs, inner = _build_loop_nest(builder, out_shape, names)
    d = [dim(i) for i in range(len(out_shape))]
    in_exprs = [d[0], d[1], d[2] // factor, d[3] // factor]
    value = _access(inner, ctx.lookup(op.input), ivs, in_exprs)
    _store(inner, value, out, ivs, list(d))
    for loop in loops:
        loop.set_parallel(True)


def _lower_generic(op: linalg.GenericOp, out: Value, ctx: _LoweringContext, builder: Builder) -> None:
    space = op.get_attr("iteration_space", op.output_type.shape)
    names = [f"d{i}" for i in range(len(space))]
    loops, ivs, inner = _build_loop_nest(builder, space, names)
    d = [dim(i) for i in range(len(space))]
    out_rank = op.output_type.rank
    out_exprs = list(d[:out_rank])
    acc = None
    for operand in op.operands:
        rank = operand.type.rank
        value = _access(inner, ctx.lookup(operand), ivs, list(d[:rank]))
        acc = value if acc is None else inner.insert(MulFOp.create(acc, value)).result()
    if acc is None:
        acc = inner.insert(ConstantOp.create(0.0, op.output_type.element_type)).result()
    _store(inner, acc, out, ivs, out_exprs)


def _lower_op(op: linalg.LinalgOp, ctx: _LoweringContext, builder: Builder) -> Optional[Value]:
    """Lower one linalg op; returns the output buffer value, or None to skip."""
    if isinstance(op, linalg.FillOp):
        # Weights / constants become external globals, not compute loops.
        tensor_type: TensorType = op.result().type
        memref_type = MemRefType(tensor_type.shape, tensor_type.element_type, "dram")
        global_op = ctx.alloc_builder.insert(
            GetGlobalOp.create(ctx.next_global_name(op.get_attr("label", "weight")), memref_type)
        )
        ctx.map(op.result(), global_op.result())
        return global_op.result()

    out_buffer = _alloc_buffer(
        ctx.alloc_builder, op.output_type, f"{op.name.split('.')[-1]}_out"
    )
    if isinstance(op, linalg.Conv2DOp):
        _lower_conv2d(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.DepthwiseConv2DOp):
        _lower_depthwise(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.MaxPool2DOp):
        _lower_pool(op, out_buffer, ctx, builder, is_max=True)
    elif isinstance(op, linalg.AvgPool2DOp):
        _lower_pool(op, out_buffer, ctx, builder, is_max=False)
    elif isinstance(op, linalg.LinearOp):
        _lower_linear(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.MatmulOp):
        _lower_matmul(op, out_buffer, ctx, builder)
    elif isinstance(op, (linalg.AddOp, linalg.MulOp, linalg.ReluOp, linalg.SoftmaxOp, linalg.BatchNormOp)):
        _lower_elementwise(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.ReshapeOp):
        _lower_reshape(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.ConcatOp):
        _lower_concat(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.UpsampleOp):
        _lower_upsample(op, out_buffer, ctx, builder)
    elif isinstance(op, linalg.GenericOp):
        _lower_generic(op, out_buffer, ctx, builder)
    else:
        raise NotImplementedError(f"no affine lowering for {op.name}")
    ctx.map(op.result(), out_buffer)
    return out_buffer


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
