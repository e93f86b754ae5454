"""affine dialect: loops with static bounds and affine memory accesses.

This is the main *control* IR HIDA operates on.  Loop bounds and steps are
compile-time integers (the affine restriction), and loads/stores carry an
:class:`~repro.dialects.affine_map.AffineMap` from the enclosing loop
induction variables to buffer subscripts, which enables the dependence and
connection analyses of HIDA-OPT.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..ir.core import BlockArgument, Operation, Value, register_operation
from ..ir.types import IndexType, MemRefType
from .affine_map import AffineMap, dim

__all__ = [
    "AffineForOp",
    "AffineLoadOp",
    "AffineStoreOp",
    "AffineApplyOp",
    "loop_of",
    "get_perfectly_nested_band",
    "innermost_loop",
]


@register_operation
class AffineForOp(Operation):
    """``affine.for %i = lb to ub step s`` with constant bounds.

    Directive attributes (set by HLS transforms):

    * ``pipeline`` (bool) and ``target_ii`` (int) — loop pipelining;
    * ``unroll_factor`` (int) — full/partial unrolling applied to this loop;
    * ``parallel`` (bool) — the loop carries no dependence and can be
      unrolled freely;
    * ``point_loop`` (bool) — marks intra-tile loops created by tiling.
    """

    OPERATION_NAME = "affine.for"

    @classmethod
    def create(
        cls,
        lower_bound: int,
        upper_bound: int,
        step: int = 1,
        name_hint: Optional[str] = None,
    ) -> "AffineForOp":
        if step <= 0:
            raise ValueError(f"loop step must be positive, got {step}")
        op = cls(
            name=cls.OPERATION_NAME,
            attributes={
                "lower_bound": int(lower_bound),
                "upper_bound": int(upper_bound),
                "step": int(step),
            },
            num_regions=1,
        )
        body = op.regions[0].add_entry_block(arg_types=[IndexType()])
        body.arguments[0].name_hint = name_hint or "i"
        return op

    # ----------------------------------------------------------------- bounds
    @property
    def lower_bound(self) -> int:
        return self.get_attr("lower_bound")

    @property
    def upper_bound(self) -> int:
        return self.get_attr("upper_bound")

    @property
    def step(self) -> int:
        return self.get_attr("step")

    def set_bounds(self, lower: int, upper: int, step: Optional[int] = None) -> None:
        self.set_attr("lower_bound", int(lower))
        self.set_attr("upper_bound", int(upper))
        if step is not None:
            self.set_attr("step", int(step))

    @property
    def trip_count(self) -> int:
        attributes = self.attributes
        span = attributes["upper_bound"] - attributes["lower_bound"]
        if span <= 0:
            return 0
        # Integer ceil-division: a float quotient rounds spans past 2**53.
        return -(-span // attributes["step"])

    @property
    def induction_variable(self) -> Value:
        return self.body.arguments[0]

    # ------------------------------------------------------------- directives
    @property
    def is_pipelined(self) -> bool:
        return bool(self.get_attr("pipeline", False))

    def set_pipeline(self, enabled: bool = True, target_ii: int = 1) -> None:
        self.set_attr("pipeline", enabled)
        self.set_attr("target_ii", int(target_ii))

    @property
    def target_ii(self) -> int:
        return int(self.get_attr("target_ii", 1))

    @property
    def unroll_factor(self) -> int:
        return int(self.get_attr("unroll_factor", 1))

    def set_unroll_factor(self, factor: int) -> None:
        self.set_attr("unroll_factor", int(factor))

    @property
    def is_parallel(self) -> bool:
        return bool(self.get_attr("parallel", False))

    def set_parallel(self, parallel: bool = True) -> None:
        self.set_attr("parallel", parallel)

    # ----------------------------------------------------------------- verify
    def verify(self) -> None:
        if self.step <= 0:
            raise ValueError("affine.for step must be positive")
        if not self.regions or self.regions[0].empty:
            raise ValueError("affine.for must have a body block")
        if not self.body.arguments:
            raise ValueError("affine.for body must have an induction variable")


@register_operation
class AffineApplyOp(Operation):
    """Apply a single-result affine map to index operands."""

    OPERATION_NAME = "affine.apply"

    @classmethod
    def create(cls, map: AffineMap, operands: Sequence[Value]) -> "AffineApplyOp":
        if map.num_results != 1:
            raise ValueError("affine.apply requires a single-result map")
        return cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            result_types=[IndexType()],
            attributes={"map": map},
        )

    @property
    def map(self) -> AffineMap:
        return self.get_attr("map")


class _AffineMemAccess(Operation):
    """Shared behaviour of affine load and store."""

    @property
    def access_map(self) -> AffineMap:
        return self.get_attr("map")

    @property
    def memref(self) -> Value:
        raise NotImplementedError

    @property
    def index_operands(self) -> Sequence[Value]:
        raise NotImplementedError

    def driving_loops(self) -> List[Optional[Tuple["AffineForOp", int]]]:
        """Per subscript, the loop whose induction variable drives it and the
        stride, or None when the subscript mentions zero or several dims or
        its index operand is not an induction variable (see
        :meth:`AffineMap.single_dim_strides`; ``affine.apply`` operands are
        not looked through)."""
        operands = self.index_operands
        drivers: List[Optional[Tuple[AffineForOp, int]]] = []
        for decoded in self.access_map.single_dim_strides():
            loop = loop_of(operands[decoded[0]]) if decoded else None
            drivers.append((loop, decoded[1]) if loop is not None else None)
        return drivers


@register_operation
class AffineLoadOp(_AffineMemAccess):
    """``affine.load %memref[map(ivs)]``."""

    OPERATION_NAME = "affine.load"

    @classmethod
    def create(
        cls,
        memref: Value,
        indices: Sequence[Value],
        map: Optional[AffineMap] = None,
    ) -> "AffineLoadOp":
        memref_type: MemRefType = memref.type
        access_map = map or AffineMap(len(indices), [dim(i) for i in range(len(indices))])
        return cls(
            name=cls.OPERATION_NAME,
            operands=[memref, *indices],
            result_types=[memref_type.element_type],
            attributes={"map": access_map},
        )

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def index_operands(self) -> Sequence[Value]:
        return self.operands[1:]

    def verify(self) -> None:
        if self.access_map.num_dims != len(self.index_operands):
            raise ValueError(
                "affine.load access map dims do not match index operand count"
            )


@register_operation
class AffineStoreOp(_AffineMemAccess):
    """``affine.store %value, %memref[map(ivs)]``."""

    OPERATION_NAME = "affine.store"

    @classmethod
    def create(
        cls,
        value: Value,
        memref: Value,
        indices: Sequence[Value],
        map: Optional[AffineMap] = None,
    ) -> "AffineStoreOp":
        access_map = map or AffineMap(len(indices), [dim(i) for i in range(len(indices))])
        return cls(
            name=cls.OPERATION_NAME,
            operands=[value, memref, *indices],
            attributes={"map": access_map},
        )

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def index_operands(self) -> Sequence[Value]:
        return self.operands[2:]

    def verify(self) -> None:
        if self.access_map.num_dims != len(self.index_operands):
            raise ValueError(
                "affine.store access map dims do not match index operand count"
            )


# ---------------------------------------------------------------------------
# Loop nest utilities
# ---------------------------------------------------------------------------


def loop_of(value: Value) -> Optional[AffineForOp]:
    """The ``affine.for`` whose induction variable ``value`` is, else None
    (an op result inside a loop body is not that loop's variable)."""
    if isinstance(value, BlockArgument):
        parent = value.owner.parent_op
        if isinstance(parent, AffineForOp):
            return parent
    return None


def get_perfectly_nested_band(root: AffineForOp) -> List[AffineForOp]:
    """The perfectly nested band rooted at ``root``.

    Descends while the body of the current loop holds exactly one op, an
    ``affine.for`` (loop bodies carry no terminator).
    """
    band = [root]
    current = root
    while True:
        body_ops = current.body.operations
        if len(body_ops) != 1 or not isinstance(body_ops[0], AffineForOp):
            break
        current = body_ops[0]
        band.append(current)
    return band


def innermost_loop(loop: AffineForOp) -> AffineForOp:
    """The loop reached from ``loop`` by descending into the first
    ``affine.for`` of each body, through an imperfect nest too."""
    while True:
        inner = [op for op in loop.body.operations if isinstance(op, AffineForOp)]
        if not inner:
            return loop
        loop = inner[0]
