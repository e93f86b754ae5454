"""IR builder: insertion points and a convenience builder object.

The builder mirrors MLIR's ``OpBuilder``.  It tracks an insertion point
(a block plus an index inside that block) and inserts newly created
operations there.  Context-manager helpers make it easy to build nested
regions::

    builder = Builder.at_end(func.entry_block)
    loop = builder.insert(AffineForOp.create(0, 16))
    with builder.at_end_of(loop.body):
        builder.insert(...)
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, TypeVar

from .builtin import ConstantOp
from .core import Block, Operation, Value
from .types import IndexType, Type

__all__ = ["InsertionPoint", "Builder"]

#: Inserting preserves the concrete op class, so callers keep access to
#: op-specific accessors (``loop.body``, ``apply.result()``, ...).
_OpT = TypeVar("_OpT", bound=Operation)


class InsertionPoint:
    """A position inside a block where new operations are inserted."""

    def __init__(self, block: Block, index: Optional[int] = None) -> None:
        self.block = block
        self.index = len(block) if index is None else index

    @classmethod
    def at_end(cls, block: Block) -> "InsertionPoint":
        return cls(block, len(block))

    @classmethod
    def at_start(cls, block: Block) -> "InsertionPoint":
        return cls(block, 0)

    @classmethod
    def before(cls, op: Operation) -> "InsertionPoint":
        block = op.parent
        if block is None:
            raise ValueError("operation has no parent block")
        return cls(block, block.index_of(op))

    @classmethod
    def after(cls, op: Operation) -> "InsertionPoint":
        block = op.parent
        if block is None:
            raise ValueError("operation has no parent block")
        return cls(block, block.index_of(op) + 1)

    def insert(self, op: _OpT) -> _OpT:
        self.block.insert(self.index, op)
        self.index += 1
        return op


class Builder:
    """Creates and inserts operations at a movable insertion point."""

    def __init__(self, insertion_point: Optional[InsertionPoint] = None) -> None:
        self._ip = insertion_point

    # --------------------------------------------------------- constructors
    @classmethod
    def at_end(cls, block: Block) -> "Builder":
        return cls(InsertionPoint.at_end(block))

    @classmethod
    def at_start(cls, block: Block) -> "Builder":
        return cls(InsertionPoint.at_start(block))

    @classmethod
    def before(cls, op: Operation) -> "Builder":
        return cls(InsertionPoint.before(op))

    @classmethod
    def after(cls, op: Operation) -> "Builder":
        return cls(InsertionPoint.after(op))

    # --------------------------------------------------------------- control
    @property
    def insertion_point(self) -> Optional[InsertionPoint]:
        return self._ip

    @contextlib.contextmanager
    def at(self, ip: InsertionPoint) -> Iterator["Builder"]:
        """Temporarily move the insertion point."""
        saved = self._ip
        self._ip = ip
        try:
            yield self
        finally:
            self._ip = saved

    def at_end_of(self, block: Block) -> Any:
        return self.at(InsertionPoint.at_end(block))

    # --------------------------------------------------------------- insert
    def insert(self, op: _OpT) -> _OpT:
        if self._ip is None:
            raise ValueError("builder has no insertion point")
        return self._ip.insert(op)

    def create(
        self,
        op_cls: type,
        *args: Any,
        **kwargs: Any,
    ) -> Operation:
        """Create an op via its ``create`` classmethod and insert it."""
        op = op_cls.create(*args, **kwargs)
        return self.insert(op)

    # ----------------------------------------------------------- conveniences
    def constant(self, value: Any, type: Type) -> Value:
        op = self.insert(ConstantOp.create(value, type))
        return op.result()

    def index_constant(self, value: int) -> Value:
        return self.constant(int(value), IndexType())
