"""memref dialect: allocation, module-level globals and whole-buffer copies."""

from __future__ import annotations

from typing import Optional

from ..ir.core import Operation, Value, register_operation
from ..ir.types import MemRefType

__all__ = [
    "AllocOp",
    "CopyOp",
    "GetGlobalOp",
]


@register_operation
class AllocOp(Operation):
    """Allocate an on-chip (or external, per memory space) buffer."""

    OPERATION_NAME = "memref.alloc"

    @classmethod
    def create(cls, memref_type: MemRefType, name_hint: Optional[str] = None) -> "AllocOp":
        op = cls(name=cls.OPERATION_NAME, result_types=[memref_type])
        if name_hint:
            op.result().name_hint = name_hint
        return op

    @property
    def memref_type(self) -> MemRefType:
        return self.result().type


@register_operation
class CopyOp(Operation):
    """Copy the full contents of ``source`` into ``target``.

    Inserted by HIDA's multi-producer elimination and data-path balancing
    (explicit memory copies between a buffer and its duplicate).
    """

    OPERATION_NAME = "memref.copy"

    @classmethod
    def create(cls, source: Value, target: Value) -> "CopyOp":
        return cls(name=cls.OPERATION_NAME, operands=[source, target])

    @property
    def source(self) -> Value:
        return self.operand(0)

    @property
    def target(self) -> Value:
        return self.operand(1)


@register_operation
class GetGlobalOp(Operation):
    """Reference a module-level constant buffer (e.g. DNN weights)."""

    OPERATION_NAME = "memref.get_global"

    @classmethod
    def create(cls, symbol: str, memref_type: MemRefType) -> "GetGlobalOp":
        return cls(
            name=cls.OPERATION_NAME,
            result_types=[memref_type],
            attributes={"symbol": symbol},
        )
