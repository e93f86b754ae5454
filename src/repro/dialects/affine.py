"""affine dialect: loops with static bounds and affine memory accesses.

This is the main *control* IR HIDA operates on.  Loop bounds and steps are
compile-time integers (the affine restriction), and loads/stores carry an
:class:`~repro.dialects.affine_map.AffineMap` from the enclosing loop
induction variables to buffer subscripts, which enables the dependence and
connection analyses of HIDA-OPT.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..ir.core import Block, BlockArgument, Operation, Value, register_operation
from ..ir.types import IndexType, MemRefType
from .affine_map import AffineMap

__all__ = [
    "AffineForOp",
    "AffineIfOp",
    "AffineYieldOp",
    "AffineLoadOp",
    "AffineStoreOp",
    "AffineApplyOp",
    "loop_of",
    "get_loop_band",
    "get_perfectly_nested_band",
    "enclosing_loops",
    "loop_nest_depth",
    "trip_count",
    "total_trip_count",
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
class AffineIfOp(Operation):
    """``affine.if`` guarded by an affine condition over enclosing IVs."""

    OPERATION_NAME = "affine.if"

    @classmethod
    def create(
        cls,
        condition_map: AffineMap,
        operands: Sequence[Value] = (),
        with_else: bool = False,
    ) -> "AffineIfOp":
        op = cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            attributes={"condition": condition_map},
            num_regions=2 if with_else else 1,
        )
        for region in op.regions:
            region.add_entry_block()
        return op

    @property
    def condition(self) -> AffineMap:
        return self.get_attr("condition")

    @property
    def then_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def else_block(self) -> Optional[Block]:
        return self.regions[1].entry_block if len(self.regions) > 1 else None


@register_operation
class AffineYieldOp(Operation):
    """Terminator of affine loop and if bodies."""

    OPERATION_NAME = "affine.yield"

    @classmethod
    def create(cls, operands: Sequence[Value] = ()) -> "AffineYieldOp":
        return cls(name=cls.OPERATION_NAME, operands=operands)


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
        access_map = map or AffineMap.identity(len(indices))
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
        access_map = map or AffineMap.identity(len(indices))
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


def enclosing_loops(op: Operation) -> List[AffineForOp]:
    """All affine.for loops enclosing ``op``, outermost first."""
    loops: List[AffineForOp] = []
    parent = op.parent_op
    while parent is not None:
        if isinstance(parent, AffineForOp):
            loops.append(parent)
        parent = parent.parent_op
    loops.reverse()
    return loops


def get_loop_band(root: AffineForOp) -> List[AffineForOp]:
    """The maximal loop band rooted at ``root``: root plus nested for-loops
    reachable by descending through single-loop bodies (ignoring yields)."""
    band = [root]
    current = root
    while True:
        inner_loops = [
            op for op in current.body.operations if isinstance(op, AffineForOp)
        ]
        if len(inner_loops) != 1:
            break
        current = inner_loops[0]
        band.append(current)
    return band


def get_perfectly_nested_band(root: AffineForOp) -> List[AffineForOp]:
    """The perfectly nested band rooted at ``root``.

    Descends while the body of the current loop contains exactly one loop and
    no other operations except terminators.
    """
    band = [root]
    current = root
    while True:
        body_ops = [
            op
            for op in current.body.operations
            if not isinstance(op, AffineYieldOp)
        ]
        if len(body_ops) != 1 or not isinstance(body_ops[0], AffineForOp):
            break
        current = body_ops[0]
        band.append(current)
    return band


def loop_nest_depth(op: Operation) -> int:
    """Maximum affine.for nesting depth inside ``op`` (inclusive)."""
    best = 0
    for nested in op.walk():
        if isinstance(nested, AffineForOp):
            depth = 1 + len(enclosing_loops(nested))
            # Only count loops enclosed within `op` itself.
            outer = [l for l in enclosing_loops(nested) if op.is_ancestor_of(l)]
            depth = 1 + len(outer)
            best = max(best, depth)
    return best


def trip_count(loop: AffineForOp) -> int:
    """Trip count of a single affine loop."""
    return loop.trip_count


def total_trip_count(op: Operation) -> int:
    """Product of trip counts of all loops inside ``op`` along the deepest nest.

    Used as a quick estimate of the iteration space size of a node.
    """
    loops = [nested for nested in op.walk() if isinstance(nested, AffineForOp)]
    if not loops:
        return 1
    # Iteration space = sum over innermost loops of product of enclosing trips.
    total = 0
    for loop in loops:
        inner_loops = [
            o for o in loop.body.operations if isinstance(o, AffineForOp)
        ]
        if inner_loops:
            continue  # not innermost
        product = loop.trip_count
        for outer in enclosing_loops(loop):
            if op.is_ancestor_of(outer):
                product *= max(outer.trip_count, 1)
        total += product
    return max(total, 1)
