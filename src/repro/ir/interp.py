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
  counters and (almost always) the outputs.
* **Dataflow** — ``hida.dispatch``/``hida.task`` are transparent regions;
  ``hida.schedule``/``hida.node`` are isolated and bind their operands to
  block arguments (memory is shared by reference, so node writes are
  visible to later nodes).  Nodes execute in program order, which is a
  topological order of the single-producer dataflow graph.  Streams are
  FIFOs; reading an empty stream yields 0 and counts an underflow.
* **linalg** — a module still carrying linalg ops is cloned and lowered
  through :func:`~repro.transforms.linalg_to_affine.lower_linalg_to_affine`
  first; the interpreter executes the affine form (the linalg ops' defined
  semantics).
* **Budget** — interpretation refuses modules whose statically estimated
  cost (:func:`estimate_cost`) exceeds ``max_ops``, and aborts if the
  dynamic op count overruns the estimate's safety margin; both raise
  :class:`InterpreterBudgetError` so callers can report an honest
  "skipped" instead of a silently vacuous "validated".
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import deque
from fractions import Fraction
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union, cast

from ..dialects import affine, arith, dataflow, memref, scf
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
    AffineSymbolExpr,
)
from .builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp, UnrealizedCastOp
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

#: The dynamic op counter may exceed the static estimate by this factor
#: before interpretation aborts (the estimate is approximate for scf loops
#: with non-constant bounds).
_DYNAMIC_SLACK = 4

#: Assumed trip count for scf loops whose bounds are not constants.
_UNKNOWN_TRIP = 64


class InterpreterError(RuntimeError):
    """Interpretation failed (malformed IR, unsupported construct, ...)."""


class UnsupportedOpError(InterpreterError):
    """The module contains an op the interpreter has no semantics for."""


class InterpreterBudgetError(InterpreterError):
    """The module's estimated or actual cost exceeds the op budget."""

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
    """A (possibly strided) view over flat storage cells.

    ``rank`` and ``size`` (the storage length) are fixed when the view is
    built: a cells list never resizes, so every view of it keeps them.
    """

    __slots__ = ("cells", "shape", "strides", "offset", "rank", "size")

    def __init__(
        self,
        cells: List[Union[int, float]],
        shape: Sequence[int],
        strides: Optional[Sequence[int]] = None,
        offset: int = 0,
    ) -> None:
        self.cells = cells
        self.shape = tuple(int(s) for s in shape)
        self.strides = (
            tuple(strides) if strides is not None else _row_major_strides(self.shape)
        )
        self.offset = offset
        self.rank = len(self.shape)
        self.size = len(cells)

    @classmethod
    def allocate(cls, memref_type: MemRefType, slot: int, seed: int) -> "MemoryRef":
        """A buffer of ``memref_type`` holding ``seed_value(slot, i, seed)``."""
        convert = float if isinstance(memref_type.element_type, FloatType) else int
        count = memref_type.num_elements
        return cls(
            [convert(seed_value(slot, i, seed)) for i in range(count)], memref_type.shape
        )

    @property
    def num_elements(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count

    def _address(self, indices: Sequence[int]) -> Optional[int]:
        """Flat cell address of ``indices``; None when out of bounds.

        The general access path: rank 0 or >= 3, multi-term or non-linear
        subscripts, non-integer operands (0 % of the benchmark's ``validate``
        and ``cache-fill`` accesses).  Rank-1/2 single-term accesses make the
        same checks inline, in :meth:`_Interpreter._lower_access`'s steps.
        """
        if len(indices) != self.rank:
            return None
        address = self.offset
        for index, extent, stride in zip(indices, self.shape, self.strides):
            if not 0 <= index < extent:
                return None
            address += index * stride
        return address if 0 <= address < self.size else None

    def addresses(self) -> List[int]:
        """Every element's storage address in row-major logical order,
        unchecked (a subview's cells may run past the storage)."""
        addresses = [self.offset]
        for extent, stride in zip(self.shape, self.strides):
            addresses = [a + i * stride for a in addresses for i in range(extent)]
        return addresses

    def logical_cells(self) -> Tuple[Union[int, float], ...]:
        """The view's elements in row-major logical order (0 past storage)."""
        if (
            self.offset == 0
            and self.strides == _row_major_strides(self.shape)
            and self.num_elements == self.size
        ):
            return tuple(self.cells)
        cells, size = self.cells, self.size
        return tuple([cells[a] if 0 <= a < size else 0 for a in self.addresses()])

    def copy_from(self, source: "MemoryRef", zero: Union[int, float]) -> Tuple[int, int]:
        """Element-wise copy of the overlapping row-major prefix.

        Returns how many of its reads and writes fell outside storage: a
        missing source cell copies ``zero``, a write past storage is dropped.
        """
        reads = source.addresses()[: self.num_elements]
        src, src_size = source.cells, source.size
        # Every read before the first write: the two views may alias.
        values = [src[a] if 0 <= a < src_size else zero for a in reads]
        missed = len([a for a in reads if not 0 <= a < src_size])
        cells, size, dropped = self.cells, self.size, 0
        for address, value in zip(self.addresses(), values):
            if 0 <= address < size:
                cells[address] = value
            else:
                dropped += 1
        return missed, dropped


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


def _constant_int(value: Value) -> Optional[int]:
    owner = value.defining_op
    if isinstance(owner, ConstantOp):
        try:
            return int(owner.value)
        except (TypeError, ValueError):
            return None
    return None


def estimate_cost(op: Operation) -> int:
    """Estimated op executions of interpreting ``op`` (loops multiplied out).

    Approximate by construction — scf loops with non-constant bounds are
    assumed to run :data:`_UNKNOWN_TRIP` iterations and linalg ops are
    charged through their MAC/element counts — but cheap (one IR walk) and
    good enough to refuse model-scale modules before touching them.
    """
    if isinstance(op, affine.AffineForOp):
        return 2 + max(op.trip_count, 0) * _block_cost(op.body)
    if isinstance(op, scf.ForOp):
        lb = _constant_int(op.operand(0))
        ub = _constant_int(op.operand(1))
        step = _constant_int(op.operand(2))
        if lb is not None and ub is not None and step:
            trips = max(0, -(-(ub - lb) // step)) if step > 0 else _UNKNOWN_TRIP
        else:
            trips = _UNKNOWN_TRIP
        return 2 + trips * sum(_block_cost(b) for r in op.regions for b in r.blocks)
    if isinstance(op, scf.WhileOp):
        body = sum(_block_cost(b) for r in op.regions for b in r.blocks)
        return 2 + _UNKNOWN_TRIP * body
    from ..dialects.linalg import LinalgOp  # local: keep the ir layer light

    if isinstance(op, LinalgOp):
        cost = 0
        for result in op.results:
            if isinstance(result.type, MemRefType):
                cost += result.type.num_elements
        return 4 * max(cost, op.macs(), 1)
    if isinstance(op, memref.CopyOp):
        source_type = op.source.type
        elements = (
            source_type.num_elements if isinstance(source_type, MemRefType) else 1
        )
        return 1 + elements
    cost = 1
    for region in op.regions:
        for block in region.blocks:
            cost += _block_cost(block)
    return cost


def _block_cost(block: Block) -> int:
    return sum(estimate_cost(op) for op in block.operations)


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
    if all(const == 0 and [k for _, k in terms] == [1] for const, terms in rows):
        return _pick([terms[0][0] for _, terms in rows])
    return lambda frame: [
        sum([frame[slot] * k for slot, k in terms], const) for const, terms in rows
    ]


# ---------------------------------------------------------------------------
# The interpreter: lower the entry function once, run the closures
# ---------------------------------------------------------------------------


def _trunc_div(a: Any, b: Any) -> int:
    a, b = int(a), int(b)
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _divf(a: Any, b: Any) -> Any:
    if b == 0:
        raise InterpreterError("float division by zero")
    return a / b


def _exp(a: Any) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        raise InterpreterError(f"exp overflow on {a!r}") from None


def _sqrt(a: Any) -> float:
    if a < 0:
        raise InterpreterError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


#: Scalar ops that are a pure function of their leading operands:
#: ``kind -> (function, how many operands it reads)``.
_ARITH: Dict[type, Tuple[Callable[..., Any], int]] = {
    arith.AddFOp: (operator.add, 2),
    arith.SubFOp: (operator.sub, 2),
    arith.MulFOp: (operator.mul, 2),
    arith.MaxFOp: (max, 2),
    arith.MinFOp: (min, 2),
    arith.AddIOp: (operator.add, 2),
    arith.SubIOp: (operator.sub, 2),
    arith.MulIOp: (operator.mul, 2),
    arith.MaxIOp: (max, 2),
    arith.MinIOp: (min, 2),
    arith.DivFOp: (_divf, 2),
    arith.DivIOp: (_trunc_div, 2),
    arith.NegFOp: (operator.neg, 1),
    arith.ExpOp: (_exp, 1),
    arith.SqrtOp: (_sqrt, 1),
    arith.MACOp: (lambda a, b, acc: acc + a * b, 3),
    arith.SelectOp: (lambda condition, a, b: a if condition else b, 3),
    UnrealizedCastOp: (lambda a: a, 1),
}

_CMP_PREDICATES: Dict[str, Callable[[Any, Any], Any]] = {
    name: getattr(operator, name) for name in ("eq", "ne", "lt", "le", "gt", "ge")
}

_YIELDS = (affine.AffineYieldOp, scf.YieldOp, dataflow.YieldOp)
#: ``affine.if``/``scf.if``/``scf.while`` bodies end at their first yield or
#: return (the return still executes).
_BODY_END = _YIELDS + (ReturnOp,)

#: The values visible at a program point -> their frame slots.
_Scope = Dict[Value, int]
_LoadOp = Union[affine.AffineLoadOp, memref.LoadOp]
_StoreOp = Union[affine.AffineStoreOp, memref.StoreOp]


def _apply(fn: Callable[..., Any], args: Sequence[int], out: int) -> Step:
    """``frame[out] = fn(*frame[args])``."""
    if len(args) == 2:
        a, b = args

        def step(frame: List[Any]) -> None:
            frame[out] = fn(frame[a], frame[b])

    else:
        operands = _pick(args)

        def step(frame: List[Any]) -> None:
            frame[out] = fn(*operands(frame))

    return step


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
    one call however often its loop runs.  The op budget is charged per
    straight-line block: at block entry and at every loop iteration.
    """

    def __init__(self, seed: int, max_ops: int) -> None:
        self.seed = seed
        self.max_ops = max_ops
        self.limit = max_ops * _DYNAMIC_SLACK
        self.ops_executed = 0
        self.oob_reads = 0
        self.oob_writes = 0
        self.stream_underflows = 0
        self.globals: Dict[str, MemoryRef] = {}
        self.returned: Tuple[object, ...] = ()
        self.frame: List[Any] = []

    # ------------------------------------------------------------- entry
    def run(self, func: FuncOp) -> ExecutionResult:
        scope: _Scope = {}
        arguments = [self._define(argument, scope) for argument in func.arguments]
        body = self._block(func.entry_block, scope)
        frame = self.frame
        for position, argument in enumerate(func.arguments):
            frame[arguments[position]] = self._seeded_argument(position, argument.type)
        body(frame)
        if self.ops_executed > self.limit:
            raise self._overrun()
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

    def _overrun(self) -> InterpreterBudgetError:
        return InterpreterBudgetError(
            f"dynamic op count exceeded {self.limit} (budget {self.max_ops})",
            cost=self.ops_executed,
            max_ops=self.max_ops,
        )

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
    def _steps(
        self,
        block: Block,
        scope: _Scope,
        skip: Tuple[type, ...] = (),
        stop: Tuple[type, ...] = (),
    ) -> Tuple[Tuple[Step, ...], int]:
        """Lowered ops of ``block`` and what one pass over them is charged.

        ``skip`` drops a loop's own yields; ``stop`` ends the body at its
        first terminator.  Constants are charged but have no step: their
        value is written into the frame here, once.
        """
        steps: List[Step] = []
        cost = 0
        for op in block.operations:
            if isinstance(op, skip):
                continue
            if isinstance(op, stop) and not isinstance(op, ReturnOp):
                break
            cost += 1
            step = self._lower(op, scope)
            if step is not None:
                steps.append(step)
            if isinstance(op, stop):
                break
        return tuple(steps), cost

    def _block(self, block: Block, scope: _Scope, stop: Tuple[type, ...] = ()) -> Step:
        steps, cost = self._steps(block, scope, stop=stop)
        limit = self.limit

        def run(frame: List[Any]) -> None:
            self.ops_executed += cost
            if self.ops_executed > limit:
                raise self._overrun()
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
        for kind in type(op).__mro__:
            if kind in _ARITH:
                fn, arity = _ARITH[kind]
                args = self._slots(op.operands[:arity], scope, op)
                return _apply(fn, args, self._define(op.result(), scope))
            lower = _LOWER.get(kind)
            if lower is not None:
                return lower(self, op, scope)
        return _raising(UnsupportedOpError(f"no interpreter semantics for {op.name!r}"))

    def _lower_constant(self, op: ConstantOp, scope: _Scope) -> None:
        result = op.result()
        convert = float if isinstance(result.type, FloatType) else int
        self.frame[self._define(result, scope)] = convert(op.value)

    def _lower_cast(self, op: arith.CastOp, scope: _Scope) -> Step:
        convert = float if isinstance(op.result().type, FloatType) else math.trunc
        args = self._slots(op.operands[:1], scope, op)
        return _apply(convert, args, self._define(op.result(), scope))

    def _lower_cmp(self, op: arith.CmpOp, scope: _Scope) -> Step:
        predicate = op.get_attr("predicate")
        compare = _CMP_PREDICATES.get(str(predicate))
        if compare is None:
            return _raising(UnsupportedOpError(f"unknown cmp predicate {predicate!r}"))
        args = self._slots(op.operands[:2], scope, op)
        return _apply(lambda a, b: int(compare(a, b)), args, self._define(op.result(), scope))

    # ------------------------------------------------------------ memory
    def _lower_load(self, op: _LoadOp, scope: _Scope) -> Step:
        (source,) = self._slots([op.memref], scope, op)
        return self._lower_access(op, scope, source, self._define(op.result(), scope), True)

    def _lower_store(self, op: _StoreOp, scope: _Scope) -> Step:
        value, target = self._slots([op.value, op.memref], scope, op)
        return self._lower_access(op, scope, target, value, False)

    def _lower_access(
        self, op: Union[_LoadOp, _StoreOp], scope: _Scope, view: int, value: int, load: bool
    ) -> Step:
        """``frame[value] = cell`` (``load``) or ``cell = frame[value]``, in
        one call per dynamic access.

        The access map (or the plain indices) is decoded once, here.  Rank 1
        or 2 with one term per subscript over integer operands takes a fused
        step that computes the subscripts, checks the view's rank, each
        dimension and the storage range, and touches the cell itself; any
        other access goes through :meth:`MemoryRef._address`.
        """
        if isinstance(op, (affine.AffineLoadOp, affine.AffineStoreOp)):
            affine_map, operands = op.access_map, op.index_operands
        else:
            affine_map, operands = AffineMap.identity(len(op.indices)), op.indices
        slots, rows = self._decoded(affine_map, operands, scope, op)
        zero = _zero_for(op.memref)

        def miss(frame: List[Any]) -> None:
            if load:
                self.oob_reads += 1
                frame[value] = zero
            else:
                self.oob_writes += 1

        if not rows or len(rows) > 2 or any(len(terms) != 1 for _, terms in rows):
            subscripts = _lower_subscripts(affine_map, slots, rows)

            def step(frame: List[Any]) -> None:
                memory = frame[view]
                address = memory._address(subscripts(frame))
                if address is None:
                    miss(frame)
                elif load:
                    frame[value] = memory.cells[address]
                else:
                    memory.cells[address] = frame[value]

        elif len(rows) == 1:
            ((c0, ((s0, k0),)),) = rows

            def step(frame: List[Any]) -> None:
                memory = frame[view]
                if memory.rank == 1:
                    i = c0 + frame[s0] * k0
                    if 0 <= i < memory.shape[0]:
                        address = memory.offset + i * memory.strides[0]
                        if 0 <= address < memory.size:
                            if load:
                                frame[value] = memory.cells[address]
                            else:
                                memory.cells[address] = frame[value]
                            return
                miss(frame)

        else:
            (c0, ((s0, k0),)), (c1, ((s1, k1),)) = rows

            def step(frame: List[Any]) -> None:
                memory = frame[view]
                if memory.rank == 2:
                    i, j = c0 + frame[s0] * k0, c1 + frame[s1] * k1
                    height, width = memory.shape
                    if 0 <= i < height and 0 <= j < width:
                        row, column = memory.strides
                        address = memory.offset + i * row + j * column
                        if 0 <= address < memory.size:
                            if load:
                                frame[value] = memory.cells[address]
                            else:
                                memory.cells[address] = frame[value]
                            return
                miss(frame)

        return step

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
        zero = _zero_for(op.source)

        def step(frame: List[Any]) -> None:
            memory = frame[target]
            missed, dropped = memory.copy_from(frame[source], zero)
            self.oob_reads += missed
            self.oob_writes += dropped
            self.ops_executed += max(memory.num_elements - 1, 0)

        return step

    def _lower_subview(self, op: memref.SubViewOp, scope: _Scope) -> Step:
        (source,) = self._slots(op.operands[:1], scope, op)
        offsets = [int(v) for v in op.get_attr("offsets", ())]
        sizes = [int(v) for v in op.get_attr("sizes", ())]
        strides = [int(v) for v in op.get_attr("strides", ())]
        out = self._define(op.result(), scope)

        def step(frame: List[Any]) -> None:
            parent: MemoryRef = frame[source]
            offset = parent.offset + sum(o * s for o, s in zip(offsets, parent.strides))
            view_strides = [p * s for p, s in zip(parent.strides, strides)]
            frame[out] = MemoryRef(parent.cells, sizes, view_strides, offset)

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
        body, cost = self._steps(op.body, scope, skip=(affine.AffineYieldOp,))
        trips = range(op.lower_bound, op.upper_bound, op.step)
        limit = self.limit

        def step(frame: List[Any]) -> None:
            for value in trips:
                self.ops_executed += cost
                if self.ops_executed > limit:
                    raise self._overrun()
                frame[iv] = value
                for inner in body:
                    inner(frame)

        return step

    def _lower_affine_if(self, op: affine.AffineIfOp, scope: _Scope) -> Step:
        condition = self._access(op.get_attr("condition"), op.operands, scope, op)
        then, orelse = self._block(op.then_block, scope, stop=_BODY_END), op.else_block
        otherwise = None if orelse is None else self._block(orelse, scope, stop=_BODY_END)

        def step(frame: List[Any]) -> None:
            for value in condition(frame):
                if value < 0:
                    if otherwise is not None:
                        otherwise(frame)
                    return
            then(frame)

        return step

    # --------------------------------------------------------------- scf
    def _lower_scf_for(self, op: scf.ForOp, scope: _Scope) -> Step:
        lower, upper, stride, *init = self._slots(op.operands, scope, op)
        block = op.regions[0].entry_block
        iv, *carried = [self._define(argument, scope) for argument in block.arguments]
        body, cost = self._steps(block, scope, skip=(scf.YieldOp,))
        yielded = self._yielded(block, scope)
        results = [self._define(result, scope) for result in op.results]
        limit = self.limit

        def step(frame: List[Any]) -> None:
            by = int(frame[stride])
            if by <= 0:
                raise InterpreterError(f"scf.for step must be positive, got {by}")
            values = [frame[s] for s in init]
            for value in range(int(frame[lower]), int(frame[upper]), by):
                self.ops_executed += cost
                if self.ops_executed > limit:
                    raise self._overrun()
                frame[iv] = value
                for slot, carried_value in zip(carried, values):
                    frame[slot] = carried_value
                for inner in body:
                    inner(frame)
                if yielded:
                    values = [frame[s] for s in yielded]
            for slot, result in zip(results, values):
                frame[slot] = result

        return step

    def _lower_scf_if(self, op: scf.IfOp, scope: _Scope) -> Step:
        (condition,) = self._slots(op.operands[:1], scope, op)
        blocks = [op.regions[0].entry_block]
        if len(op.regions) > 1 and op.regions[1].blocks:
            blocks.append(op.regions[1].entry_block)
        branches = [
            (self._block(block, scope, stop=_BODY_END), self._yielded(block, scope))
            for block in blocks
        ]
        results = [(self._define(r, scope), _zero_for(r)) for r in op.results]

        def step(frame: List[Any]) -> None:
            values: List[Any] = []
            if frame[condition] or len(branches) > 1:
                body, yielded = branches[0 if frame[condition] else 1]
                body(frame)
                values = [frame[s] for s in yielded]
            for position, (slot, zero) in enumerate(results):
                frame[slot] = values[position] if position < len(values) else zero

        return step

    def _lower_scf_while(self, op: scf.WhileOp, scope: _Scope) -> Step:
        init = self._slots(op.operands, scope, op)
        regions = []
        for region in op.regions[:2]:
            block = region.entry_block
            arguments = [self._define(argument, scope) for argument in block.arguments]
            body = self._block(block, scope, stop=_BODY_END)
            regions.append((arguments, body, self._yielded(block, scope)))
        (cond_args, cond, cond_yield), (body_args, body, body_yield) = regions
        results = [self._define(result, scope) for result in op.results]

        def step(frame: List[Any]) -> None:
            values = [frame[s] for s in init]
            while True:
                for slot, value in zip(cond_args, values):
                    frame[slot] = value
                cond(frame)
                yielded = [frame[s] for s in cond_yield]
                if not yielded:
                    raise InterpreterError("scf.while condition region must yield")
                flag, forwarded = yielded[0], yielded[1:] or values
                if not flag:
                    values = list(forwarded)
                    break
                for slot, value in zip(body_args, forwarded):
                    frame[slot] = value
                body(frame)
                values = [frame[s] for s in body_yield] or list(forwarded)
            for slot, value in zip(results, values):
                frame[slot] = value

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


_LOWER: Dict[type, Callable[[_Interpreter, Any, _Scope], Optional[Step]]] = {
    ConstantOp: _Interpreter._lower_constant,
    arith.CastOp: _Interpreter._lower_cast,
    arith.CmpOp: _Interpreter._lower_cmp,
    affine.AffineApplyOp: _Interpreter._lower_affine_apply,
    affine.AffineLoadOp: _Interpreter._lower_load,
    affine.AffineStoreOp: _Interpreter._lower_store,
    affine.AffineForOp: _Interpreter._lower_affine_for,
    affine.AffineIfOp: _Interpreter._lower_affine_if,
    memref.AllocOp: _Interpreter._lower_alloc,
    dataflow.BufferOp: _Interpreter._lower_alloc,
    memref.DeallocOp: lambda self, op, scope: (lambda frame: None),
    memref.LoadOp: _Interpreter._lower_load,
    memref.StoreOp: _Interpreter._lower_store,
    memref.CopyOp: _Interpreter._lower_copy,
    memref.SubViewOp: _Interpreter._lower_subview,
    memref.GetGlobalOp: _Interpreter._lower_get_global,
    scf.ForOp: _Interpreter._lower_scf_for,
    scf.IfOp: _Interpreter._lower_scf_if,
    scf.WhileOp: _Interpreter._lower_scf_while,
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _executable_module(module: ModuleOp) -> ModuleOp:
    """The module itself, or an affine-lowered clone if linalg remains."""
    from ..dialects.linalg import LinalgOp

    if not any(isinstance(op, LinalgOp) for op in module.walk()):
        return module
    from ..transforms.linalg_to_affine import lower_linalg_to_affine

    clone = module.clone()
    lower_linalg_to_affine(clone)
    return clone


def _entry_function(module: ModuleOp, name: Optional[str]) -> FuncOp:
    functions = module.functions
    if not functions:
        raise InterpreterError("module has no functions to execute")
    if name is not None:
        func = module.lookup(name)
        if func is None:
            raise InterpreterError(f"no function named {name!r}")
        return func
    for func in functions:
        if func.is_top:
            return func
    return functions[0]


def interpret_module(
    module: ModuleOp,
    *,
    seed: int = 0,
    max_ops: int = DEFAULT_MAX_OPS,
    function: Optional[str] = None,
) -> ExecutionResult:
    """Execute ``module``'s top function over seeded inputs.

    Raises :class:`InterpreterBudgetError` when the statically estimated
    cost exceeds ``max_ops`` (callers report "skipped", never a silent
    pass) and :class:`InterpreterError` on malformed or unsupported IR.
    """
    module = _executable_module(module)
    cost = estimate_cost(module)
    if cost > max_ops:
        raise InterpreterBudgetError(
            f"estimated interpretation cost {cost} exceeds budget {max_ops}",
            cost=cost,
            max_ops=max_ops,
        )
    func = _entry_function(module, function)
    return _Interpreter(seed, max_ops).run(func)
