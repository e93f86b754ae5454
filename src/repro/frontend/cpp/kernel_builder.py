"""Kernel builder: a Polygeist-style frontend for C++-like loop kernels.

The builder constructs affine loop-nest IR programmatically — playing the
role Polygeist plays in the paper for HLS C++ inputs.  Kernels are written
as short Python functions::

    kb = KernelBuilder("gemm")
    A = kb.add_input("A", (32, 16))
    B = kb.add_input("B", (16, 16))
    C = kb.add_output("C", (32, 16))
    with kb.loop_nest(("i", "j", "k"), (32, 16, 16)) as (i, j, k):
        kb.store(C, [i, j], kb.load(C, [i, j]) + kb.load(A, [i, k]) * kb.load(B, [k, j]))
    module = kb.finish()

Index expressions support affine arithmetic on induction variables
(``i * 2 + 1``), which is what produces the non-trivial scaling maps of the
paper's Listing 1 / Table 4.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ...dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ...dialects.affine_map import AffineExpr, AffineMap, constant, dim
from ...dialects.arith import AddFOp, DivFOp, MaxFOp, MulFOp, SqrtOp, SubFOp
from ...ir.builder import Builder
from ...ir.builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from ...ir.core import Value
from ...ir.types import MemRefType, Type, f32

__all__ = ["IndexExpr", "ScalarExpr", "KernelBuilder"]


@dataclasses.dataclass
class IndexExpr:
    """An affine expression over loop induction variables.

    Internally a linear combination ``sum(coeff_iv * iv) + offset``; supports
    ``+``, ``-`` and ``*`` by integer constants and other index expressions.
    """

    terms: Dict[int, Tuple[Value, int]]  # id(value) -> (value, coefficient)
    offset: int = 0

    @classmethod
    def of(cls, iv: Value) -> "IndexExpr":
        return cls({id(iv): (iv, 1)}, 0)

    @classmethod
    def const(cls, value: int) -> "IndexExpr":
        return cls({}, int(value))

    def _combine(self, other: "IndexExpr", sign: int) -> "IndexExpr":
        terms = dict(self.terms)
        for key, (value, coeff) in other.terms.items():
            existing = terms.get(key)
            new_coeff = (existing[1] if existing else 0) + sign * coeff
            if new_coeff == 0:
                terms.pop(key, None)
            else:
                terms[key] = (value, new_coeff)
        return IndexExpr(terms, self.offset + sign * other.offset)

    def __add__(self, other: Union["IndexExpr", int]) -> "IndexExpr":
        other = other if isinstance(other, IndexExpr) else IndexExpr.const(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["IndexExpr", int]) -> "IndexExpr":
        other = other if isinstance(other, IndexExpr) else IndexExpr.const(other)
        return self._combine(other, -1)

    def __mul__(self, factor: int) -> "IndexExpr":
        if not isinstance(factor, int):
            raise TypeError("index expressions can only be scaled by integers")
        terms = {
            key: (value, coeff * factor) for key, (value, coeff) in self.terms.items()
        }
        return IndexExpr(terms, self.offset * factor)

    __rmul__ = __mul__

    @property
    def values(self) -> List[Value]:
        return [value for value, _ in self.terms.values()]


IndexLike = Union[IndexExpr, Value, int]


def _as_index_expr(item: IndexLike) -> IndexExpr:
    if isinstance(item, IndexExpr):
        return item
    if isinstance(item, Value):
        return IndexExpr.of(item)
    if isinstance(item, int):
        return IndexExpr.const(item)
    raise TypeError(f"cannot use {item!r} as an index expression")


@dataclasses.dataclass
class ScalarExpr:
    """A scalar SSA value wrapper with operator overloading."""

    value: Value
    builder: "KernelBuilder"

    def _binary(self, op_cls, other: Union["ScalarExpr", float, int]) -> "ScalarExpr":
        other_value = self.builder._as_scalar(other, self.value.type)
        op = self.builder._builder.insert(op_cls.create(self.value, other_value))
        return ScalarExpr(op.result(), self.builder)

    def __add__(self, other):
        return self._binary(AddFOp, other)

    def __radd__(self, other):
        return self.builder.scalar(other, self.value.type)._binary(AddFOp, self)

    def __sub__(self, other):
        return self._binary(SubFOp, other)

    def __rsub__(self, other):
        return self.builder.scalar(other, self.value.type)._binary(SubFOp, self)

    def __mul__(self, other):
        return self._binary(MulFOp, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(DivFOp, other)

    def maximum(self, other):
        return self._binary(MaxFOp, other)


ScalarLike = Union[ScalarExpr, Value, float, int]


class KernelBuilder:
    """Builds a single-function module of affine loop nests."""

    def __init__(self, name: str, element_type: Type = f32) -> None:
        self.name = name
        self.element_type = element_type
        self.module = ModuleOp.create(name)
        self._arg_specs: List[Tuple[str, MemRefType]] = []
        self._func: Optional[FuncOp] = None
        self._builder: Optional[Builder] = None
        self._args: Dict[str, Value] = {}
        self._finished = False
        self._pending_body: List = []

    # ------------------------------------------------------------- arguments
    def add_input(self, name: str, shape: Sequence[int]) -> str:
        return self._add_arg(name, shape)

    def add_output(self, name: str, shape: Sequence[int]) -> str:
        return self._add_arg(name, shape)

    def add_inout(self, name: str, shape: Sequence[int]) -> str:
        return self._add_arg(name, shape)

    def _add_arg(self, name: str, shape: Sequence[int]) -> str:
        if self._func is not None:
            raise RuntimeError("arguments must be declared before building loops")
        self._arg_specs.append((name, MemRefType(shape, self.element_type, "dram")))
        return name

    def _ensure_func(self) -> None:
        if self._func is not None:
            return
        self._func = FuncOp.create(
            self.name,
            input_types=[ty for _, ty in self._arg_specs],
            top=True,
            arg_names=[name for name, _ in self._arg_specs],
        )
        self.module.append(self._func)
        self._builder = Builder.at_end(self._func.entry_block)
        for (name, _), arg in zip(self._arg_specs, self._func.arguments):
            self._args[name] = arg

    def add_local(self, name: str, shape: Sequence[int]) -> str:
        """Declare a function-local on-chip array (``float A[..][..];``)."""
        self._ensure_func()
        from ...dialects.memref import AllocOp

        alloc = self._builder.insert(
            AllocOp.create(MemRefType(shape, self.element_type, "bram"), name_hint=name)
        )
        self._args[name] = alloc.result()
        return name

    def arg(self, name: str) -> Value:
        self._ensure_func()
        return self._args[name]

    # ------------------------------------------------------------------ loops
    @contextlib.contextmanager
    def loop_nest(
        self,
        names: Sequence[str],
        bounds: Sequence[int],
        steps: Optional[Sequence[int]] = None,
    ) -> Iterator[Tuple[IndexExpr, ...]]:
        """Open a perfectly-nested loop band; yields one IndexExpr per loop."""
        self._ensure_func()
        steps = steps or [1] * len(names)
        saved_builder = self._builder
        loops: List[AffineForOp] = []
        builder = self._builder
        for name, bound, step in zip(names, bounds, steps):
            loop = builder.insert(AffineForOp.create(0, bound, step, name_hint=name))
            loops.append(loop)
            builder = Builder.at_end(loop.body)
            self._builder = builder
        try:
            yield tuple(IndexExpr.of(loop.induction_variable) for loop in loops)
        finally:
            self._builder = saved_builder

    @contextlib.contextmanager
    def loop(self, name: str, bound: int, step: int = 1) -> Iterator[IndexExpr]:
        with self.loop_nest([name], [bound], [step]) as (iv,):
            yield iv

    # ---------------------------------------------------------------- scalars
    def scalar(self, value: ScalarLike, type: Optional[Type] = None) -> ScalarExpr:
        return ScalarExpr(self._as_scalar(value, type or self.element_type), self)

    def _as_scalar(self, value: ScalarLike, type: Type) -> Value:
        if isinstance(value, ScalarExpr):
            return value.value
        if isinstance(value, Value):
            return value
        if isinstance(value, (int, float)):
            op = self._builder.insert(ConstantOp.create(float(value), type))
            return op.result()
        raise TypeError(f"cannot use {value!r} as a scalar")

    def constant(self, value: float) -> ScalarExpr:
        self._ensure_func()
        return self.scalar(value)

    # ----------------------------------------------------------- loads/stores
    def _build_access(
        self, indices: Sequence[IndexLike]
    ) -> Tuple[List[Value], AffineMap]:
        exprs = [_as_index_expr(i) for i in indices]
        operand_order: List[Value] = []
        for expr in exprs:
            for value in expr.values:
                if all(value is not existing for existing in operand_order):
                    operand_order.append(value)
        position = {id(v): i for i, v in enumerate(operand_order)}
        results: List[AffineExpr] = []
        for expr in exprs:
            acc: AffineExpr = constant(expr.offset)
            for key, (value, coeff) in expr.terms.items():
                acc = acc + dim(position[key]) * coeff
            results.append(acc)
        access_map = AffineMap(len(operand_order), 0, results)
        return operand_order, access_map

    def load(self, array: str, indices: Sequence[IndexLike]) -> ScalarExpr:
        memref = self.arg(array) if isinstance(array, str) else array
        operands, access_map = self._build_access(indices)
        op = self._builder.insert(AffineLoadOp.create(memref, operands, access_map))
        return ScalarExpr(op.result(), self)

    def store(self, array: str, indices: Sequence[IndexLike], value: ScalarLike) -> None:
        memref = self.arg(array) if isinstance(array, str) else array
        operands, access_map = self._build_access(indices)
        scalar = self._as_scalar(value, memref.type.element_type)
        self._builder.insert(AffineStoreOp.create(scalar, memref, operands, access_map))

    # ------------------------------------------------------------------ math
    def sqrt(self, value: ScalarLike) -> ScalarExpr:
        scalar = self._as_scalar(value, self.element_type)
        op = self._builder.insert(SqrtOp.create(scalar))
        return ScalarExpr(op.result(), self)

    def maximum(self, lhs: ScalarLike, rhs: ScalarLike) -> ScalarExpr:
        return self.scalar(lhs).maximum(rhs)

    # ---------------------------------------------------------------- finish
    def finish(self) -> ModuleOp:
        """Finalize the function (adds the return) and return the module."""
        self._ensure_func()
        if not self._finished:
            self._builder.insert(ReturnOp.create())
            self._finished = True
        return self.module
