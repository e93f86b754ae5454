"""arith dialect: elementary floating-point arithmetic (and ``math`` functions).

These ops are the *payload* IR at the bottom of loop nests.  The HIDA
intensity analysis counts them to derive each node's computation intensity,
and the resource model maps them to DSP/LUT costs.
"""

from __future__ import annotations

from typing import Optional

from ..ir.core import Operation, Value, register_operation
from ..ir.types import Type

__all__ = [
    "BinaryOp",
    "AddFOp",
    "SubFOp",
    "MulFOp",
    "DivFOp",
    "MaxFOp",
    "SqrtOp",
    "is_compute_op",
    "is_multiply_accumulate",
]


class BinaryOp(Operation):
    """Base class for binary elementwise scalar ops."""

    OPERATION_NAME = "arith.binary"

    @classmethod
    def create(cls, lhs: Value, rhs: Value, result_type: Optional[Type] = None):
        return cls(
            name=cls.OPERATION_NAME,
            operands=[lhs, rhs],
            result_types=[result_type or lhs.type],
        )

    def verify(self) -> None:
        if self.num_operands != 2:
            raise ValueError(f"{self.name} expects 2 operands")


class UnaryOp(Operation):
    """Base class for unary elementwise scalar ops."""

    OPERATION_NAME = "arith.unary"

    @classmethod
    def create(cls, operand: Value, result_type: Optional[Type] = None):
        return cls(
            name=cls.OPERATION_NAME,
            operands=[operand],
            result_types=[result_type or operand.type],
        )


@register_operation
class AddFOp(BinaryOp):
    OPERATION_NAME = "arith.addf"


@register_operation
class SubFOp(BinaryOp):
    OPERATION_NAME = "arith.subf"


@register_operation
class MulFOp(BinaryOp):
    OPERATION_NAME = "arith.mulf"


@register_operation
class DivFOp(BinaryOp):
    OPERATION_NAME = "arith.divf"


@register_operation
class MaxFOp(BinaryOp):
    OPERATION_NAME = "arith.maxf"


@register_operation
class SqrtOp(UnaryOp):
    OPERATION_NAME = "math.sqrt"


_COMPUTE_OP_NAMES = {
    "arith.addf",
    "arith.subf",
    "arith.mulf",
    "arith.divf",
    "arith.maxf",
    "math.sqrt",
}

_MULTIPLY_OP_NAMES = {"arith.mulf", "arith.divf"}


def is_compute_op(op: Operation) -> bool:
    """True for ops that the intensity analysis counts as computation."""
    return op.name in _COMPUTE_OP_NAMES


def is_multiply_accumulate(op: Operation) -> bool:
    """True for ops that consume DSP blocks (multiplies and divides)."""
    return op.name in _MULTIPLY_OP_NAMES
