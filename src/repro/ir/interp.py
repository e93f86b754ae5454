"""A deterministic reference interpreter for the IR dialects.

This is the executable ground truth behind translation validation
(:mod:`repro.analysis.tv`): it runs a module's top function over seeded,
workload-derived input tensors and returns every observable output, so two
module versions can be compared bitwise.

Semantics, in one place:

* **Inputs** — every memref argument of the top function is filled with
  :func:`seed_value`, a deterministic *small integer* derived from the
  argument position and the flat element index.  Small integers keep f64
  arithmetic exact (no rounding below 2**53), so even transforms that
  reorder additions stay bitwise identical on kernels without division;
  only genuinely non-integer math (``divf``/``sqrt``/``exp``) needs the
  documented float tolerance.
* **Allocations** — ``memref.alloc`` and ``hida.buffer`` results are
  zero-initialized (several kernels accumulate without an explicit fill).
  ``memref.get_global`` is seeded from a stable hash of its symbol.
* **Out-of-bounds** — reads return 0 and writes are dropped, both counted
  in the result.  This keeps the interpreter total and deterministic; a
  transform that changes which addresses go out of bounds changes the
  counters and (almost always) the outputs.  An access whose subscripts are
  linear in ``affine.for`` induction variables is proven in range of its
  static shape once, at lowering, by interval arithmetic over the loop
  ranges; it then only checks that the buffer has that shape.  Every other
  access (another operand, an empty loop, a subscript that may leave the
  buffer such as a padded window's) is checked each time it runs.
* **Dataflow** — ``hida.dispatch``/``hida.task`` are transparent regions;
  ``hida.schedule``/``hida.node`` are isolated and bind their operands to
  block arguments (memory is shared by reference, so node writes are
  visible to later nodes).  Nodes execute in program order, which is a
  topological order of the single-producer dataflow graph.  Streams are
  FIFOs; reading an empty stream yields 0 and counts an underflow.
* **linalg** — each kind runs from its mathematics over :class:`MemoryRef`
  cells, with no lowering and no read of its loop-nest declaration
  (:data:`_KERNELS` states the padding values and summation orders).  A
  frontend function's tensor arguments are seeded as memref arguments are,
  and its returned tensor is reported in ``returned``.
* **Budget** — every loop has constant bounds, so :func:`estimate_cost`
  counts the ops a run executes, exactly, by one walk and without running
  anything; that count is the run's ``ops_executed``.  A linalg op counts
  one per term its result combines (:func:`_linalg_terms`).  Interpretation
  refuses a module whose count exceeds ``max_ops`` with
  :class:`InterpreterBudgetError`, so callers can report an honest
  "skipped" instead of a silently vacuous "validated".
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union, cast

from ..dialects import affine, arith, dataflow, linalg, memref
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
)
from .builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from .core import Block, Operation, Value
from .types import FloatType, IndexType, IntegerType, MemRefType, StreamType, TensorType

__all__ = [
    "DEFAULT_MAX_OPS",
    "ExecutionResult",
    "InterpreterBudgetError",
    "InterpreterError",
    "UnsupportedOpError",
    "diff_results",
    "estimate_cost",
    "interpret_module",
    "seed_value",
]

#: Default static interpretation budget (estimated op executions).  The
#: kernel zoo at its default problem sizes fits comfortably; DNN models do
#: not and are honestly reported as skipped by the validation layer.
DEFAULT_MAX_OPS = 2_000_000


class InterpreterError(RuntimeError):
    """Interpretation failed (malformed IR, unsupported construct, ...)."""


class UnsupportedOpError(InterpreterError):
    """The module contains an op the interpreter has no semantics for."""


class InterpreterBudgetError(InterpreterError):
    """The module's estimated cost exceeds the op budget."""

    def __init__(self, message: str, cost: int = 0, max_ops: int = 0) -> None:
        super().__init__(message)
        self.cost = cost
        self.max_ops = max_ops


def seed_value(slot: int, index: int, seed: int = 0) -> int:
    """Deterministic small-integer tensor element.

    Values stay in ``1..11`` so floating-point accumulation over them is
    exact: sums and products of small integers round-trip through f64
    without rounding, making legal-but-reordering transforms bitwise
    identical (the documented tolerance is only for non-integer math).
    """
    return (slot * 7 + index * 3 + seed * 5) % 11 + 1


# ---------------------------------------------------------------------------
# Memory model
# ---------------------------------------------------------------------------


def _zero_of(element_type) -> Union[int, float]:
    return 0.0 if isinstance(element_type, FloatType) else 0


def _row_major_strides(shape: Sequence[int]) -> Tuple[int, ...]:
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


class MemoryRef:
    """A row-major buffer: flat storage cells and the shape indexing them.

    ``rank`` and ``strides`` are fixed when the buffer is built: a cells
    list never resizes, so an in-range subscript is an in-range address.
    """

    __slots__ = ("cells", "shape", "strides", "rank")

    def __init__(self, cells: List[Union[int, float]], shape: Sequence[int]) -> None:
        self.cells = cells
        self.shape = tuple(int(s) for s in shape)
        self.strides = _row_major_strides(self.shape)
        self.rank = len(self.shape)

    @classmethod
    def allocate(cls, memref_type: MemRefType | TensorType, slot: int, seed: int) -> MemoryRef:
        """A buffer of ``memref_type`` holding ``seed_value(slot, i, seed)``."""
        offset = slot * 7 + seed * 5  # seed_value's formula, inline: no call per element
        cells: List[Any] = [(offset + i * 3) % 11 + 1 for i in range(memref_type.num_elements)]
        if isinstance(memref_type.element_type, FloatType):
            cells = [float(v) for v in cells]
        return cls(cells, memref_type.shape)

    def _address(self, indices: Sequence[int]) -> Optional[int]:
        """Flat cell address of ``indices``; None when out of bounds.

        Every checked access takes it: one that :meth:`_Interpreter._proof`
        does not show in range, or that meets a buffer of another shape.  It
        does not run on the benchmark's ``validate`` or ``cache-fill``: every
        access there is proven in range at lowering.
        """
        if len(indices) != self.rank:
            return None
        address = 0
        for index, extent, stride in zip(indices, self.shape, self.strides):
            if not 0 <= index < extent:
                return None
            address += index * stride
        return address

    def logical_cells(self) -> Tuple[Union[int, float], ...]:
        """The buffer's elements in row-major order."""
        return tuple(self.cells)

    def copy_from(self, source: "MemoryRef") -> None:
        """Element-wise copy of the overlapping row-major prefix."""
        count = min(len(self.cells), len(source.cells))
        # Slicing reads every source cell before the first write.
        self.cells[:count] = source.cells[:count]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExecutionResult:
    """Observable behaviour of one module execution.

    ``outputs`` holds the final contents of every memref argument of the
    executed function, keyed by argument position (``arg0``, ``arg1``, ...)
    so the key survives renaming across pipeline stages.
    """

    outputs: Tuple[Tuple[str, Tuple[Union[int, float], ...]], ...]
    returned: Tuple[object, ...] = ()
    ops_executed: int = 0
    oob_reads: int = 0
    oob_writes: int = 0
    stream_underflows: int = 0

    @property
    def output_map(self) -> Dict[str, Tuple[Union[int, float], ...]]:
        return dict(self.outputs)


def diff_results(
    before: ExecutionResult, after: ExecutionResult, tolerance: float = 0.0
) -> List[str]:
    """Human-readable mismatches between two executions (empty = equal).

    ``tolerance`` is a *relative* bound applied per element when non-zero;
    ``0.0`` (the default) demands bitwise equality.
    """

    def close(a, b) -> bool:
        if a == b:
            return True
        if tolerance <= 0.0:
            return False
        try:
            return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
        except TypeError:
            return False

    mismatches: List[str] = []
    before_map, after_map = before.output_map, after.output_map
    for name in sorted(set(before_map) | set(after_map)):
        left, right = before_map.get(name), after_map.get(name)
        if left is None or right is None:
            mismatches.append(f"{name}: present on one side only")
            continue
        if len(left) != len(right):
            mismatches.append(
                f"{name}: {len(left)} element(s) vs {len(right)}"
            )
            continue
        for index, (a, b) in enumerate(zip(left, right)):
            if not close(a, b):
                mismatches.append(f"{name}[{index}]: {a!r} != {b!r}")
                break  # first differing element per buffer is enough
    if len(before.returned) != len(after.returned):
        mismatches.append(
            f"returned {len(before.returned)} value(s) vs {len(after.returned)}"
        )
    else:
        for index, (a, b) in enumerate(zip(before.returned, after.returned)):
            if not close(a, b):
                mismatches.append(f"returned[{index}]: {a!r} != {b!r}")
    return mismatches


# ---------------------------------------------------------------------------
# The op count: one flat walk, no execution
# ---------------------------------------------------------------------------


#: How :func:`_count` charges an op of a class, as lowering runs it: one
#: plus its body ``trip_count`` times (affine.for), the cells it writes
#: (copy), nothing for it and the rest of its block (a dataflow yield, where
#: lowering stops), the terms its result combines (linalg), or one plus its
#: nested ops (anything else).  Filled per class on first sight.
_AFFINE_FOR, _COPY, _END, _LINALG, _PLAIN = range(5)
_COST_KINDS: Dict[type, int] = {}


def _cost_kind(op_class: type) -> int:
    for base, code in (
        (affine.AffineForOp, _AFFINE_FOR),
        (memref.CopyOp, _COPY),
        (dataflow.YieldOp, _END),
        (linalg.LinalgOp, _LINALG),
    ):
        if issubclass(op_class, base):
            break
    else:
        code = _PLAIN
    _COST_KINDS[op_class] = code
    return code


def _linalg_terms(op: linalg.LinalgOp) -> int:
    """The terms a direct run of ``op`` combines, from its shapes and
    attributes: one per product of a convolution or linear layer, one per
    window element of a pooling, else one per result element."""
    cells = op.output_type.num_elements
    if isinstance(op, (linalg.Conv2DOp, linalg.DepthwiseConv2DOp, linalg.LinearOp)):
        weight = cast(TensorType, op.operand(1).type)  # OIHW or (out, in)
        return cells * (weight.num_elements // weight.shape[0])
    if isinstance(op, (linalg.MaxPool2DOp, linalg.AvgPool2DOp)):
        return cells * op.get_attr("kernel") ** 2
    return cells


def _count(func: FuncOp) -> int:
    """The ops a run of ``func`` executes.

    One flat walk, no recursion: each op is charged its own count times the
    product of the trip counts of the loops around it, which a stack of
    ``(block ops, factor)`` carries down.  Every loop bound is constant, so
    this is the run's count exactly.
    """
    total = 0
    stack: List[Tuple[List[Any], int]] = [(func.entry_block.operations, 1)]
    kinds = _COST_KINDS
    while stack:
        ops, factor = stack.pop()
        for op in ops:
            code = kinds.get(type(op))
            if code is None:
                code = _cost_kind(type(op))
            if code == _PLAIN:
                total += factor
                for region in op.regions:
                    for block in region.blocks:
                        stack.append((block.operations, factor))
            elif code == _AFFINE_FOR:
                total += factor
                stack.append((op.body.operations, factor * op.trip_count))
            elif code == _COPY:
                target_type = op.target.type
                cells = target_type.num_elements if isinstance(target_type, MemRefType) else 1
                total += factor * max(cells, 1)
            elif code == _END:
                break
            else:  # _LINALG
                total += factor * _linalg_terms(op)
    return total


def _entry_function(module: ModuleOp) -> FuncOp:
    functions = module.functions
    if not functions:
        raise InterpreterError("module has no functions to execute")
    for func in functions:
        if func.is_top:
            return func
    return functions[0]


def estimate_cost(module: ModuleOp) -> int:
    """The number of ops :func:`interpret_module` executes on ``module``.

    Exact, and known without executing: every loop bound is constant.  The
    run's ``ExecutionResult.ops_executed`` is this number, and the budget
    refuses a module when it exceeds ``max_ops``.  A module without
    functions executes nothing and counts 0.
    """
    if not module.functions:
        return 0
    return _count(_entry_function(module))


# ---------------------------------------------------------------------------
# Lowering affine maps to integer rows
# ---------------------------------------------------------------------------

#: One lowered op: reads and writes its pre-resolved slots of the frame.
Step = Callable[[List[Any]], None]
#: A lowered affine map: operand slots of the frame -> integer subscripts.
_Subscripts = Callable[[List[Any]], Sequence[int]]
#: ``(const, {operand position: coefficient})`` of one linear map result.
_Row = Tuple[int, Dict[int, int]]
#: ``(const, [(frame slot, coefficient), ...])``: a row over the frame.
_Decoded = Tuple[int, List[Tuple[int, int]]]


def _linear_row(expr: AffineExpr) -> Optional[_Row]:
    """``expr`` as ``const + sum(coeff * operand)``; None when it is not linear.

    The interpreter's own linear form, deliberately not shared with the
    dependence engine of the passes it judges.  ``floordiv``/``mod`` and
    products of two non-constants return None and keep the general
    :meth:`AffineMap.evaluate` path.
    """
    if isinstance(expr, AffineConstantExpr):
        return expr.value, {}
    if isinstance(expr, AffineDimExpr):
        return 0, {expr.position: 1}
    if not isinstance(expr, AffineBinaryExpr) or expr.kind not in ("add", "mul"):
        return None
    lhs, rhs = _linear_row(expr.lhs), _linear_row(expr.rhs)
    if lhs is None or rhs is None:
        return None
    if expr.kind == "add":
        terms = dict(lhs[1])
        for position, coeff in rhs[1].items():
            terms[position] = terms.get(position, 0) + coeff
        return lhs[0] + rhs[0], terms
    if lhs[1] and rhs[1]:
        return None
    (scale, _), (const, terms) = (lhs, rhs) if not lhs[1] else (rhs, lhs)
    return scale * const, {p: scale * coeff for p, coeff in terms.items()}


def _pick(slots: Sequence[int]) -> _Subscripts:
    """``frame -> tuple(frame[s] for s in slots)`` without a Python-level loop."""
    if not slots:
        return lambda frame: ()
    if len(slots) == 1:
        (only,) = slots
        return lambda frame: (frame[only],)
    picker: _Subscripts = operator.itemgetter(*slots)
    return picker


def _general_subscripts(affine_map: AffineMap, slots: Sequence[int]) -> _Subscripts:
    """The general case: coerce the operands to ``int``, ``AffineMap.evaluate``."""
    dim_slots = slots[: affine_map.num_dims]
    return lambda frame: affine_map.evaluate([int(frame[s]) for s in dim_slots])


def _decode(affine_map: AffineMap, slots: Sequence[int]) -> Optional[List[_Decoded]]:
    """``affine_map``'s results as rows over the integer operands held in
    ``slots`` of the frame (zero coefficients dropped); None when one
    result is not linear."""
    rows = [_linear_row(result) for result in affine_map.results]
    if len(slots) < affine_map.num_dims or None in rows:
        return None
    return [
        (const, [(slots[p], k) for p, k in sorted(terms.items()) if k])
        for const, terms in cast(List[_Row], rows)
    ]


def _lower_subscripts(
    affine_map: AffineMap, slots: Sequence[int], rows: Optional[List[_Decoded]]
) -> _Subscripts:
    """``affine_map`` over the operands in ``slots``, from its :func:`_decode` rows.

    Identity/permutation rows become plain slot picks; ``rows`` None (a
    non-linear result or non-integer operands) takes :func:`_general_subscripts`.
    """
    if rows is None:
        return _general_subscripts(affine_map, slots)
    picks = [
        terms[0][0] for const, terms in rows if not const and len(terms) == 1 and terms[0][1] == 1
    ]
    if len(picks) == len(rows):
        return _pick(picks)
    return lambda frame: [
        sum([frame[slot] * k for slot, k in terms], const) for const, terms in rows
    ]


# ---------------------------------------------------------------------------
# linalg: each kind from its mathematics
# ---------------------------------------------------------------------------

#: One linalg op's run: its operands' buffers -> its result's buffer.
_Kernel = Callable[[Sequence[MemoryRef]], MemoryRef]


def _windows(op: Any, input_shape: Sequence[int], kh: int, kw: int) -> List[List[Tuple[int, int]]]:
    """Per output position of an NCHW window op, row-major, its window's
    ``(offset in the input plane, or -1 in the padding; tap)`` pairs, taps
    row-major over ``kh x kw``."""
    (height, width), stride, padding = input_shape[2:], op.stride, op.padding
    rows, cols = (range(0, extent * stride, stride) for extent in op.output_type.shape[2:])
    return [
        [
            (r * width + c if 0 <= r < height and 0 <= c < width else -1, a * kw + b)
            for a, r in enumerate(range(i - padding, i - padding + kh))
            for b, c in enumerate(range(j - padding, j - padding + kw))
        ]
        for i in rows
        for j in cols
    ]


def _products(op: Any) -> _Kernel:
    """``out[n][o][p] = bias[o] + sum over (c, tap) of x[n][c][window(p, tap)]
    * w[o][c][tap]``, added in (channel, row, column) order, the input padded
    with zeros: a convolution; a depthwise one, filter ``o`` reading only
    channel ``o``; a linear layer, one position ``p`` and one tap."""
    depthwise = isinstance(op, linalg.DepthwiseConv2DOp)
    shape, zero = op.output_type.shape, _zero_of(op.output_type.element_type)

    def run(operands: Sequence[MemoryRef]) -> MemoryRef:
        x, w = operands[0], operands[1]
        bias = operands[2].cells if len(operands) > 2 else None
        plane, taps = math.prod(x.shape[2:]), math.prod(w.shape[2:])
        windows = _windows(op, x.shape, *w.shape[2:]) if x.rank == 4 else [[(0, 0)]]
        xc, wc, channels, per_filter = x.cells, w.cells, x.shape[1], w.shape[1]
        cells: List[Any] = []
        for n in range(x.shape[0]):
            for o in range(shape[1]):
                planes = [
                    ((n * channels + c) * plane, (o * per_filter + k) * taps)
                    for k, c in enumerate(range(o, o + 1) if depthwise else range(channels))
                ]
                for window in windows:
                    total = zero if bias is None else bias[o]
                    for x_base, w_base in planes:
                        for offset, tap in window:
                            value = xc[x_base + offset] if offset >= 0 else zero
                            total += value * wc[w_base + tap]
                    cells.append(total)
        return MemoryRef(cells, shape)

    return run


def _pooling(op: Any) -> _Kernel:
    """The maximum of each ``k x k`` window, the input padded with -inf, or
    its average: ``x * (1 / k**2)`` added in row-major order, padded with
    zeros (the divisor is ``k**2`` whatever the padding)."""
    kernel, shape = op.get_attr("kernel"), op.output_type.shape
    zero, scale = _zero_of(op.output_type.element_type), 1.0 / (kernel * kernel)

    maximum = isinstance(op, linalg.MaxPool2DOp)
    pad: Any = -math.inf if maximum else zero

    def reduce(values: List[Any]) -> Any:
        if maximum:
            return max(values)
        total = zero
        for value in values:  # not sum(): it may compensate float rounding
            total += value * scale
        return total

    def run(operands: Sequence[MemoryRef]) -> MemoryRef:
        (x,) = operands
        windows, plane = _windows(op, x.shape, kernel, kernel), math.prod(x.shape[2:])
        cells = [
            reduce([x.cells[base + at] if at >= 0 else pad for at, _ in window])
            for base in range(0, len(x.cells), plane)
            for window in windows
        ]
        return MemoryRef(cells, shape)

    return run


def _elementwise(op: Any) -> _Kernel:
    """``lhs + rhs``; ``max(x, 0)``; batch norm's ``x * scale[c] + shift[c]``,
    ``c`` the element's index along axis 1 (axis 0 of a vector); a reshape's
    row-major copy; a fill's ``value`` in every element."""
    shape, element_type = op.output_type.shape, op.output_type.element_type
    zero = _zero_of(element_type)
    if isinstance(op, linalg.AddOp):
        return lambda args: MemoryRef([a + b for a, b in zip(args[0].cells, args[1].cells)], shape)
    if isinstance(op, linalg.ReluOp):
        return lambda args: MemoryRef([zero if zero > v else v for v in args[0].cells], shape)
    if isinstance(op, linalg.ReshapeOp):
        return lambda args: MemoryRef(list(args[0].cells), shape)
    if isinstance(op, linalg.BatchNormOp):
        inner, channels = math.prod(shape[2:]), shape[1 if len(shape) >= 2 else 0]

        def scale_shift(args: Sequence[MemoryRef]) -> MemoryRef:
            x, scale, shift = [operand.cells for operand in args]
            at = [(i // inner) % channels for i in range(len(x))]
            return MemoryRef([v * scale[c] + shift[c] for v, c in zip(x, at)], shape)

        return scale_shift
    convert = float if isinstance(element_type, FloatType) else int
    value: Union[int, float] = convert(op.get_attr("value"))
    return lambda args: MemoryRef([value] * math.prod(shape), shape)


#: linalg op class -> its kernel's builder.
_KERNELS: Dict[type, Callable[[Any], _Kernel]] = {
    linalg.Conv2DOp: _products,
    linalg.DepthwiseConv2DOp: _products,
    linalg.LinearOp: _products,
    linalg.MaxPool2DOp: _pooling,
    linalg.AvgPool2DOp: _pooling,
    linalg.AddOp: _elementwise,
    linalg.ReluOp: _elementwise,
    linalg.BatchNormOp: _elementwise,
    linalg.ReshapeOp: _elementwise,
    linalg.FillOp: _elementwise,
}


# ---------------------------------------------------------------------------
# The interpreter: lower the entry function once, run the closures
# ---------------------------------------------------------------------------


#: Scalar ops that are a pure function of their leading operands -> how many
#: operands they read; :func:`_arith_step` computes each.
_ARITH: Dict[type, int] = {
    arith.AddFOp: 2,
    arith.SubFOp: 2,
    arith.MulFOp: 2,
    arith.MaxFOp: 2,
    arith.DivFOp: 2,
    arith.SqrtOp: 1,
}


def _arith_step(kind: type, args: Sequence[int], out: int) -> Step:
    """``frame[out] = kind(*frame[args])`` computed inline, one call per dynamic
    op.  ``max`` keeps the first operand unless the second compares greater,
    as the builtin does, NaN and signed zeros included."""
    a, b = args[0], args[-1]
    if kind is arith.AddFOp:
        def step(frame: List[Any]) -> None:
            frame[out] = frame[a] + frame[b]
    elif kind is arith.SubFOp:
        def step(frame: List[Any]) -> None:
            frame[out] = frame[a] - frame[b]
    elif kind is arith.MulFOp:
        def step(frame: List[Any]) -> None:
            frame[out] = frame[a] * frame[b]
    elif kind is arith.MaxFOp:
        def step(frame: List[Any]) -> None:
            x, y = frame[a], frame[b]
            frame[out] = y if y > x else x
    elif kind is arith.DivFOp:
        def step(frame: List[Any]) -> None:
            y = frame[b]
            if y == 0:
                raise InterpreterError("float division by zero")
            frame[out] = frame[a] / y
    else:  # arith.SqrtOp
        def step(frame: List[Any]) -> None:
            x = frame[a]
            if x < 0:
                raise InterpreterError(f"sqrt of negative value {x!r}")
            frame[out] = math.sqrt(x)
    return step


#: The dataflow regions' terminator; their bodies end before it.
_YIELDS = (dataflow.YieldOp,)

#: The values visible at a program point -> their frame slots.
_Scope = Dict[Value, int]
_LoadOp = affine.AffineLoadOp
_StoreOp = affine.AffineStoreOp


def _raising(error: InterpreterError) -> Step:
    """The step of an op without semantics: fails when (and only if) it runs."""

    def step(frame: List[Any]) -> None:
        raise error

    return step


def _zero_for(value: Value) -> Union[int, float]:
    value_type = value.type
    if isinstance(value_type, MemRefType):
        return _zero_of(value_type.element_type)
    return _zero_of(value_type)


class _Interpreter:
    """Lowers one function into closures over a flat frame, then runs them.

    Every ``Value`` gets one slot of ``frame``; a scope maps the values
    visible at a program point to their slots (``hida.schedule``/``hida.node``
    bodies get a fresh one, their operands copied into their block-argument
    slots).  Each static op becomes one :data:`Step` with its slots,
    constants and attribute reads already resolved, so a dynamic op costs
    one call however often its loop runs.  Nothing is counted here: the
    run's ``ops_executed`` is :func:`estimate_cost`'s walk, passed in.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.oob_reads = 0
        self.oob_writes = 0
        self.stream_underflows = 0
        self.globals: Dict[str, MemoryRef] = {}
        self.returned: Tuple[object, ...] = ()
        self.frame: List[Any] = []
        #: Induction-variable slot -> its loop's range, recorded at lowering.
        self.ranges: Dict[int, range] = {}

    # ------------------------------------------------------------- entry
    def run(self, func: FuncOp, ops_executed: int) -> ExecutionResult:
        scope: _Scope = {}
        arguments = [self._define(argument, scope) for argument in func.arguments]
        body = self._block(func.entry_block, scope)
        frame = self.frame
        for position, argument in enumerate(func.arguments):
            frame[arguments[position]] = self._seeded_argument(position, argument.type)
        body(frame)
        outputs = [
            (f"arg{position}", frame[slot].logical_cells())
            for position, slot in enumerate(arguments)
            if isinstance(frame[slot], MemoryRef)
        ]
        returned = tuple(
            value.logical_cells() if isinstance(value, MemoryRef) else value
            for value in self.returned
        )
        return ExecutionResult(
            outputs=tuple(outputs),
            returned=returned,
            ops_executed=ops_executed,
            oob_reads=self.oob_reads,
            oob_writes=self.oob_writes,
            stream_underflows=self.stream_underflows,
        )

    def _seeded_argument(self, slot: int, value_type: Any) -> object:
        if isinstance(value_type, (MemRefType, TensorType)):
            return MemoryRef.allocate(value_type, slot, self.seed)
        if isinstance(value_type, StreamType):
            return deque()
        if isinstance(value_type, FloatType):
            return float(seed_value(slot, 0, self.seed))
        return seed_value(slot, 0, self.seed)

    # ------------------------------------------------------------- slots
    def _define(self, value: Value, scope: _Scope) -> int:
        slot = scope[value] = len(self.frame)
        self.frame.append(None)
        return slot

    def _slots(self, values: Sequence[Value], scope: _Scope, op: Operation) -> List[int]:
        try:
            return [scope[value] for value in values]
        except KeyError:
            raise InterpreterError(
                f"{op.name} uses a value that is not defined in its scope "
                f"(hida.schedule/hida.node bodies are isolated from above)"
            ) from None

    def _access(
        self, affine_map: AffineMap, operands: Sequence[Value], scope: _Scope, op: Operation
    ) -> _Subscripts:
        """``affine_map`` applied to ``operands``, as a function of the frame."""
        return _lower_subscripts(affine_map, *self._decoded(affine_map, operands, scope, op))

    def _decoded(
        self, affine_map: AffineMap, operands: Sequence[Value], scope: _Scope, op: Operation
    ) -> Tuple[List[int], Optional[List[_Decoded]]]:
        """The operands' slots and the map's :func:`_decode` rows.

        Statically index/integer-typed operands hold Python ints and take
        the row form; anything else (rows None) is coerced on the general path.
        """
        slots = self._slots(operands, scope, op)
        if all(isinstance(v.type, (IndexType, IntegerType)) for v in operands):
            return slots, _decode(affine_map, slots)
        return slots, None

    # ------------------------------------------------------------ blocks
    def _steps(self, block: Block, scope: _Scope, stop: Tuple[type, ...] = ()) -> Tuple[Step, ...]:
        """Lowered ops of ``block``.

        ``stop`` ends the body before its terminator.  Constants have no
        step: their value is written into the frame here, once.
        """
        steps: List[Step] = []
        for op in block.operations:
            if isinstance(op, stop):
                break
            step = self._lower(op, scope)
            if step is not None:
                steps.append(step)
        return tuple(steps)

    def _block(self, block: Block, scope: _Scope, stop: Tuple[type, ...] = ()) -> Step:
        steps = self._steps(block, scope, stop=stop)

        def run(frame: List[Any]) -> None:
            for step in steps:
                step(frame)

        return run

    def _yielded(self, block: Block, scope: _Scope) -> List[int]:
        """Slots of the operands of ``block``'s terminating yield (if any)."""
        last = block.last_op
        if last is not None and isinstance(last, _YIELDS):
            return self._slots(last.operands, scope, last)
        return []

    # ---------------------------------------------------------- dispatch
    def _lower(self, op: Operation, scope: _Scope) -> Optional[Step]:
        lower = _DISPATCH.get(type(op))
        if lower is None:
            lower = _dispatch(type(op))
        return lower(self, op, scope)

    def _lower_constant(self, op: ConstantOp, scope: _Scope) -> None:
        result = op.result()
        convert = float if isinstance(result.type, FloatType) else int
        self.frame[self._define(result, scope)] = convert(op.value)

    # ------------------------------------------------------------ memory
    def _lower_load(self, op: _LoadOp, scope: _Scope) -> Step:
        (source,) = self._slots([op.memref], scope, op)
        return self._lower_access(op, scope, source, self._define(op.result(), scope), True)

    def _lower_store(self, op: _StoreOp, scope: _Scope) -> Step:
        value, target = self._slots([op.value, op.memref], scope, op)
        return self._lower_access(op, scope, target, value, False)

    def _lower_access(
        self, op: Union[_LoadOp, _StoreOp], scope: _Scope, buffer: int, value: int, load: bool
    ) -> Step:
        """``frame[value] = cell`` (``load``) or ``cell = frame[value]``, in
        one call per dynamic access.

        The access map is decoded once, here.  An access :meth:`_proof` shows
        in range checks only that the buffer has its static shape.  Any other
        (or another shape) is checked by :meth:`MemoryRef._address`; a miss
        reads 0 or drops the write, and is counted.
        """
        affine_map, operands = op.access_map, op.index_operands
        slots, rows = self._decoded(affine_map, operands, scope, op)
        subscripts = _lower_subscripts(affine_map, slots, rows)
        zero = _zero_for(op.memref)

        def checked(frame: List[Any]) -> None:
            memory = frame[buffer]
            address = memory._address(subscripts(frame))
            if address is not None:
                if load:
                    frame[value] = memory.cells[address]
                else:
                    memory.cells[address] = frame[value]
            elif load:
                self.oob_reads += 1
                frame[value] = zero
            else:
                self.oob_writes += 1

        memref_type = op.memref.type
        proof = self._proof(memref_type, rows)
        if proof is None:
            return checked
        shape, (base, terms) = memref_type.shape, proof
        if 1 <= len(terms) <= 2:  # inline; a lone term pads with weight 0 on its slot
            (s0, w0), (s1, w1) = (terms + [(terms[0][0], 0)])[:2]

            def proven(frame: List[Any]) -> None:
                memory = frame[buffer]
                if memory.shape != shape:
                    return checked(frame)
                if load:
                    frame[value] = memory.cells[base + frame[s0] * w0 + frame[s1] * w1]
                else:
                    memory.cells[base + frame[s0] * w0 + frame[s1] * w1] = frame[value]

        else:

            def proven(frame: List[Any]) -> None:
                memory = frame[buffer]
                if memory.shape != shape:
                    return checked(frame)
                address = base
                for slot, weight in terms:
                    address += frame[slot] * weight
                if load:
                    frame[value] = memory.cells[address]
                else:
                    memory.cells[address] = frame[value]

        return proven

    def _proof(self, memref_type: Any, rows: Optional[List[_Decoded]]) -> Optional[_Decoded]:
        """The flat address as ``(base, [(iv slot, weight), ...])`` when exact
        interval arithmetic over the loop ranges puts every subscript row in
        ``[0, dim)`` of ``memref_type``'s shape; None when not proven (a term
        that is not a loop induction variable, or an empty loop)."""
        if rows is None or not isinstance(memref_type, MemRefType):
            return None
        shape = memref_type.shape
        if len(rows) != len(shape):
            return None
        weights: Dict[int, int] = {}
        base = 0
        for (const, terms), extent, stride in zip(rows, shape, _row_major_strides(shape)):
            low = high = const
            for slot, k in terms:
                trips = self.ranges.get(slot)
                if not trips or trips.step < 0:
                    return None
                first, last = trips[0] * k, trips[-1] * k
                low, high = (low + first, high + last) if k > 0 else (low + last, high + first)
                weights[slot] = weights.get(slot, 0) + k * stride
            if low < 0 or high >= extent:
                return None
            base += const * stride
        return base, [(slot, weight) for slot, weight in weights.items() if weight]

    def _lower_alloc(self, op: Union[memref.AllocOp, dataflow.BufferOp], scope: _Scope) -> Step:
        memref_type = op.memref_type
        zero, count = _zero_of(memref_type.element_type), memref_type.num_elements
        shape = memref_type.shape
        out = self._define(op.result(), scope)

        def step(frame: List[Any]) -> None:
            frame[out] = MemoryRef([zero] * count, shape)

        return step

    def _lower_copy(self, op: memref.CopyOp, scope: _Scope) -> Step:
        source, target = self._slots([op.source, op.target], scope, op)

        def step(frame: List[Any]) -> None:
            frame[target].copy_from(frame[source])

        return step

    def _lower_get_global(self, op: memref.GetGlobalOp, scope: _Scope) -> Step:
        symbol = str(op.get_attr("symbol"))
        # A stable per-symbol seeding slot, independent of hash randomization.
        seed_slot = sum((i + 1) * ord(c) for i, c in enumerate(symbol)) % 997 + 100
        memref_type = cast(MemRefType, op.result().type)
        out = self._define(op.result(), scope)
        cache, seed = self.globals, self.seed

        def step(frame: List[Any]) -> None:
            memory = cache.get(symbol)
            if memory is None:
                memory = cache[symbol] = MemoryRef.allocate(memref_type, seed_slot, seed)
            frame[out] = memory

        return step

    # ------------------------------------------------------------ affine
    def _lower_affine_apply(self, op: affine.AffineApplyOp, scope: _Scope) -> Step:
        subscripts = self._access(op.map, op.operands, scope, op)
        out = self._define(op.result(), scope)

        def step(frame: List[Any]) -> None:
            frame[out] = subscripts(frame)[0]

        return step

    def _lower_affine_for(self, op: affine.AffineForOp, scope: _Scope) -> Step:
        iv = self._define(op.induction_variable, scope)
        trips = self.ranges[iv] = range(op.lower_bound, op.upper_bound, op.step)
        body = self._steps(op.body, scope)

        def step(frame: List[Any]) -> None:
            for value in trips:
                frame[iv] = value
                for inner in body:
                    inner(frame)

        return step

    # ------------------------------------------------------------ linalg
    def _lower_linalg(self, op: linalg.LinalgOp, scope: _Scope) -> Step:
        if type(op) not in _KERNELS:
            return _unsupported(self, op, scope)
        kernel, operands = _KERNELS[type(op)](op), _pick(self._slots(op.operands, scope, op))
        out = self._define(op.result(), scope)

        def step(frame: List[Any]) -> None:
            frame[out] = kernel(operands(frame))

        return step

    # ----------------------------------------------------- hida dataflow
    def _lower_task(self, op: Union[dataflow.DispatchOp, dataflow.TaskOp], scope: _Scope) -> Step:
        """``hida.dispatch``/``hida.task``: the body shares the scope; results
        are its terminating yield's operands."""
        body = self._block(op.body, scope, stop=_YIELDS)
        moves = [
            (source, self._define(result, scope))
            for source, result in zip(self._yielded(op.body, scope), op.results)
        ]

        def step(frame: List[Any]) -> None:
            body(frame)
            for source, out in moves:
                frame[out] = frame[source]

        return step

    def _lower_isolated(self, op: Operation, scope: _Scope) -> Step:
        """``hida.schedule``/``hida.node``: a fresh scope holding only the
        block arguments, bound to the operands on entry."""
        inner: _Scope = {}
        sources = self._slots(op.operands, scope, op)
        binds = [
            (source, self._define(argument, inner))
            for source, argument in zip(sources, op.body.arguments)
        ]
        body = self._block(op.body, inner, stop=_YIELDS)

        def step(frame: List[Any]) -> None:
            for source, argument in binds:
                frame[argument] = frame[source]
            body(frame)

        return step

    def _lower_stream(self, op: dataflow.StreamOp, scope: _Scope) -> Step:
        out = self._define(op.result(), scope)

        def step(frame: List[Any]) -> None:
            frame[out] = deque()

        return step

    def _lower_stream_read(self, op: dataflow.StreamReadOp, scope: _Scope) -> Step:
        (stream,) = self._slots(op.operands[:1], scope, op)
        out = self._define(op.result(), scope)
        zero = _zero_of(op.result().type)

        def step(frame: List[Any]) -> None:
            queue: Deque[object] = frame[stream]
            if queue:
                frame[out] = queue.popleft()
            else:
                self.stream_underflows += 1
                frame[out] = zero

        return step

    def _lower_stream_write(self, op: dataflow.StreamWriteOp, scope: _Scope) -> Step:
        stream, value = self._slots(op.operands[:2], scope, op)

        def step(frame: List[Any]) -> None:
            frame[stream].append(frame[value])

        return step

    # --------------------------------------------------------- functions
    def _lower_return(self, op: ReturnOp, scope: _Scope) -> Step:
        returned = _pick(self._slots(op.operands, scope, op))

        def step(frame: List[Any]) -> None:
            self.returned = tuple(returned(frame))

        return step

    def _lower_nested(self, op: Operation, scope: _Scope) -> Step:
        return _raising(InterpreterError(f"{op.name} cannot be executed as a nested op"))


_Lowering = Callable[[_Interpreter, Any, _Scope], Optional[Step]]

_LOWER: Dict[type, _Lowering] = {
    ConstantOp: _Interpreter._lower_constant,
    affine.AffineApplyOp: _Interpreter._lower_affine_apply,
    affine.AffineLoadOp: _Interpreter._lower_load,
    affine.AffineStoreOp: _Interpreter._lower_store,
    affine.AffineForOp: _Interpreter._lower_affine_for,
    memref.AllocOp: _Interpreter._lower_alloc,
    dataflow.BufferOp: _Interpreter._lower_alloc,
    memref.CopyOp: _Interpreter._lower_copy,
    memref.GetGlobalOp: _Interpreter._lower_get_global,
    linalg.LinalgOp: _Interpreter._lower_linalg,
    dataflow.DispatchOp: _Interpreter._lower_task,
    dataflow.TaskOp: _Interpreter._lower_task,
    dataflow.ScheduleOp: _Interpreter._lower_isolated,
    dataflow.NodeOp: _Interpreter._lower_isolated,
    dataflow.StreamOp: _Interpreter._lower_stream,
    dataflow.StreamReadOp: _Interpreter._lower_stream_read,
    dataflow.StreamWriteOp: _Interpreter._lower_stream_write,
    ReturnOp: _Interpreter._lower_return,
    ModuleOp: _Interpreter._lower_nested,
    FuncOp: _Interpreter._lower_nested,
}


def _arith_lowering(kind: type) -> _Lowering:
    def lower(self: _Interpreter, op: Operation, scope: _Scope) -> Step:
        args = self._slots(op.operands[: _ARITH[kind]], scope, op)
        out = self._define(op.result(), scope)
        if len(args) < _ARITH[kind]:
            return _raising(InterpreterError(f"{op.name} is missing an operand"))
        return _arith_step(kind, args, out)

    return lower


def _unsupported(self: _Interpreter, op: Operation, scope: _Scope) -> Step:
    return _raising(UnsupportedOpError(f"no interpreter semantics for {op.name!r}"))


#: Op class -> its lowering: the first class of its MRO with an :data:`_ARITH`
#: or :data:`_LOWER` entry (arith first), else :func:`_unsupported`.  Filled
#: per class on first sight, so lowering an op is one lookup.
_DISPATCH: Dict[type, _Lowering] = {}


def _dispatch(op_class: type) -> _Lowering:
    lower: _Lowering = _unsupported
    for base in op_class.__mro__:
        if base in _ARITH:
            lower = _arith_lowering(base)
            break
        if base in _LOWER:
            lower = _LOWER[base]
            break
    _DISPATCH[op_class] = lower
    return lower


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def interpret_module(
    module: ModuleOp,
    *,
    seed: int = 0,
    max_ops: int = DEFAULT_MAX_OPS,
) -> ExecutionResult:
    """Execute ``module``'s top function over seeded inputs.

    The walk of :func:`estimate_cost` prices the function that runs and is
    the result's ``ops_executed``.  Raises :class:`InterpreterBudgetError` when
    that count exceeds ``max_ops``, before any op is lowered to a step
    (callers report "skipped", never a silent pass), and
    :class:`InterpreterError` on malformed or unsupported IR.
    """
    func = _entry_function(module)
    cost = _count(func)
    if cost > max_ops:
        raise InterpreterBudgetError(
            f"estimated interpretation cost {cost} exceeds budget {max_ops}",
            cost=cost,
            max_ops=max_ops,
        )
    return _Interpreter(seed).run(func, cost)
