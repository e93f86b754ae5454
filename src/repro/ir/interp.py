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
* **linalg** — a module still carrying linalg ops is cloned and lowered
  through :func:`~repro.transforms.linalg_to_affine.lower_linalg_to_affine`
  first; the interpreter executes the affine form, which shares the ops'
  declarations with the cost model and the C++, so the tests hold it to an
  independent reference (``tests/reference_linalg.py``).
* **Budget** — interpretation refuses modules whose statically estimated
  cost (:func:`estimate_cost`) exceeds ``max_ops`` with
  :class:`InterpreterBudgetError`, so callers can report an honest
  "skipped" instead of a silently vacuous "validated".  Every loop has
  constant bounds and a copy is priced by the cells it writes, so the
  estimate is never below the op count of the run it admits.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import deque
from fractions import Fraction
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union, cast

from ..dialects import affine, arith, dataflow, memref
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
    AffineSymbolExpr,
)
from .builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from .core import Block, Operation, Value
from .types import FloatType, IndexType, IntegerType, MemRefType, StreamType

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


def _symbol_slot(symbol: str) -> int:
    """Stable per-symbol seeding slot (independent of hash randomization)."""
    return sum((i + 1) * ord(c) for i, c in enumerate(symbol)) % 997 + 100


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
    def allocate(cls, memref_type: MemRefType, slot: int, seed: int) -> "MemoryRef":
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
# Static cost estimation
# ---------------------------------------------------------------------------


def _linalg_cost(op: Any) -> int:
    cost = 0
    for result in op.results:
        if isinstance(result.type, MemRefType):
            cost += result.type.num_elements
    return 4 * max(cost, op.macs(), 1)


def _copy_cost(op: memref.CopyOp) -> int:
    target_type = op.target.type
    return 1 + (target_type.num_elements if isinstance(target_type, MemRefType) else 1)


def estimate_cost(op: Operation) -> int:
    """Estimated op executions of interpreting ``op`` (loops multiplied out).

    Approximate by construction — linalg ops are charged through their
    MAC/element counts and a copy by the cells it writes — but cheap, on
    affine IR never below a run's ``ops_executed``, and good enough to refuse
    model-scale modules before touching them.  This is the budget's
    definition; :func:`interpret_module` computes the same number in the one
    flat walk that also finds linalg (:func:`_entry_walk`).
    """
    if isinstance(op, affine.AffineForOp):
        return 2 + max(op.trip_count, 0) * _block_cost(op.body)
    from ..dialects.linalg import LinalgOp  # local: keep the ir layer light

    if isinstance(op, LinalgOp):
        return _linalg_cost(op)
    if isinstance(op, memref.CopyOp):
        return _copy_cost(op)
    cost = 1
    for region in op.regions:
        for block in region.blocks:
            cost += _block_cost(block)
    return cost


def _block_cost(block: Block) -> int:
    return sum(estimate_cost(op) for op in block.operations)


#: How :func:`estimate_cost` charges an op of a class: nested ops scaled by
#: a loop's trips (affine.for), a leaf that is charged by its size and whose
#: regions are not entered (linalg, copy), or one plus its nested ops
#: (anything else).  Filled per class on first sight.
_AFFINE_FOR, _LINALG, _COPY, _PLAIN = range(4)
_COST_KINDS: Dict[type, int] = {}


def _cost_kind(op_class: type) -> int:
    from ..dialects.linalg import LinalgOp

    for base, code in (
        (affine.AffineForOp, _AFFINE_FOR),
        (LinalgOp, _LINALG),
        (memref.CopyOp, _COPY),
    ):
        if issubclass(op_class, base):
            break
    else:
        code = _PLAIN
    _COST_KINDS[op_class] = code
    return code


def _entry_walk(module: ModuleOp) -> Tuple[int, bool]:
    """``(estimate_cost(module), whether module holds a linalg op)``.

    One flat walk, no recursion.  :func:`estimate_cost` is linear in its
    nested ops' costs, so the total is each op's own charge times the
    product of the trip factors of the loops around it: a stack of
    ``(block ops, factor)`` carries that product down.  Ops under a
    zero-trip loop are still visited, since they may hold linalg.
    """
    total, has_linalg = 0, False
    stack: List[Tuple[List[Any], int]] = [([module], 1)]
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
                total += 2 * factor
                stack.append((op.body.operations, factor * max(op.trip_count, 0)))
            elif code == _LINALG:
                total += factor * _linalg_cost(op)
                has_linalg = True
            else:  # _COPY
                total += factor * _copy_cost(op)
    return total, has_linalg


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


def _linear_row(expr: AffineExpr, num_dims: int) -> Optional[_Row]:
    """``expr`` as ``const + sum(coeff * operand)``; None when it is not linear.

    The interpreter's own linear form, deliberately not shared with the
    dependence engine of the passes it judges.  ``floordiv``/``ceildiv``/
    ``mod``, products of two non-constants and non-``int`` constants return
    None and keep the general :meth:`AffineMap.evaluate` path.
    """
    if isinstance(expr, AffineConstantExpr):
        return (expr.value, {}) if isinstance(expr.value, int) else None
    if isinstance(expr, AffineDimExpr):
        return 0, {expr.position: 1}
    if isinstance(expr, AffineSymbolExpr):
        return 0, {num_dims + expr.position: 1}
    if not isinstance(expr, AffineBinaryExpr) or expr.kind not in ("add", "mul"):
        return None
    lhs, rhs = _linear_row(expr.lhs, num_dims), _linear_row(expr.rhs, num_dims)
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
    """The general case: coerce operands, ``AffineMap.evaluate``, check."""
    num_dims = affine_map.num_dims

    def subscripts(frame: List[Any]) -> Sequence[int]:
        operands = [int(frame[s]) for s in slots]
        coerced = []
        for value in affine_map.evaluate(operands[:num_dims], operands[num_dims:]):
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise InterpreterError(
                        f"non-integer subscript {value} from affine map"
                    )
                value = value.numerator
            coerced.append(int(value))
        return coerced

    return subscripts


def _decode(affine_map: AffineMap, slots: Sequence[int]) -> Optional[List[_Decoded]]:
    """``affine_map``'s results as rows over the integer operands held in
    ``slots`` of the frame (zero coefficients dropped); None when one
    result is not linear."""
    rows = [_linear_row(result, affine_map.num_dims) for result in affine_map.results]
    if len(slots) < affine_map.num_dims + affine_map.num_symbols or None in rows:
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
    one call however often its loop runs.  ``ops_executed`` is counted here
    too: each op adds :attr:`runs`, the product of its enclosing loops' trip
    counts, so the steps carry no bookkeeping.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops_executed = 0
        #: How often the block being lowered runs: its loops' trips multiplied.
        self.runs = 1
        self.oob_reads = 0
        self.oob_writes = 0
        self.stream_underflows = 0
        self.globals: Dict[str, MemoryRef] = {}
        self.returned: Tuple[object, ...] = ()
        self.frame: List[Any] = []
        #: Induction-variable slot -> its loop's range, recorded at lowering.
        self.ranges: Dict[int, range] = {}

    # ------------------------------------------------------------- entry
    def run(self, func: FuncOp) -> ExecutionResult:
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
            ops_executed=self.ops_executed,
            oob_reads=self.oob_reads,
            oob_writes=self.oob_writes,
            stream_underflows=self.stream_underflows,
        )

    def _seeded_argument(self, slot: int, value_type: Any) -> object:
        if isinstance(value_type, MemRefType):
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
        """Lowered ops of ``block``, each counted :attr:`runs` times.

        ``stop`` ends the body before its terminator.  Constants are counted
        but have no step: their value is written into the frame here, once.
        """
        steps: List[Step] = []
        for op in block.operations:
            if isinstance(op, stop):
                break
            self.ops_executed += self.runs
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
        # A copy writing n cells counts n ops: itself and n - 1 more (its estimate, n + 1).
        self.ops_executed += self.runs * max(_copy_cost(op) - 2, 0)

        def step(frame: List[Any]) -> None:
            frame[target].copy_from(frame[source])

        return step

    def _lower_get_global(self, op: memref.GetGlobalOp, scope: _Scope) -> Step:
        symbol = str(op.get_attr("symbol"))
        seed_slot = _symbol_slot(symbol)
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
        runs = self.runs
        self.runs = runs * len(trips)
        body = self._steps(op.body, scope)
        self.runs = runs

        def step(frame: List[Any]) -> None:
            for value in trips:
                frame[iv] = value
                for inner in body:
                    inner(frame)

        return step

    # ----------------------------------------------------- hida dataflow
    def _lower_task(self, op: dataflow.TaskOp, scope: _Scope) -> Step:
        """The body shares the scope; results are its terminating yield's operands."""
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
    dataflow.DispatchOp: lambda self, op, scope: self._block(op.body, scope, stop=_YIELDS),
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


def _entry_function(module: ModuleOp) -> FuncOp:
    functions = module.functions
    if not functions:
        raise InterpreterError("module has no functions to execute")
    for func in functions:
        if func.is_top:
            return func
    return functions[0]


def interpret_module(
    module: ModuleOp,
    *,
    seed: int = 0,
    max_ops: int = DEFAULT_MAX_OPS,
) -> ExecutionResult:
    """Execute ``module``'s top function over seeded inputs.

    One flat walk (:func:`_entry_walk`) both prices the module as
    :func:`estimate_cost` does and finds linalg; a module still carrying
    linalg is priced again as its affine-lowered clone, which is what runs.
    Raises :class:`InterpreterBudgetError` when that cost exceeds
    ``max_ops``, before any op is lowered to a step (callers report
    "skipped", never a silent pass), and :class:`InterpreterError` on
    malformed or unsupported IR.
    """
    cost, has_linalg = _entry_walk(module)
    if has_linalg:
        from ..transforms.linalg_to_affine import lower_linalg_to_affine

        module = module.clone()
        lower_linalg_to_affine(module)
        cost = _entry_walk(module)[0]
    if cost > max_ops:
        raise InterpreterBudgetError(
            f"estimated interpretation cost {cost} exceeds budget {max_ops}",
            cost=cost,
            max_ops=max_ops,
        )
    func = _entry_function(module)
    return _Interpreter(seed).run(func)
