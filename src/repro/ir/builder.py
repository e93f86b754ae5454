"""IR builder: insertion points and a builder object.

The builder mirrors MLIR's ``OpBuilder``.  It tracks an insertion point
(a block plus an index inside that block) and inserts newly created
operations there::

    builder = Builder.at_end(func.entry_block)
    loop = builder.insert(AffineForOp.create(0, 16))
    Builder.at_end(loop.body).insert(...)
"""

from __future__ import annotations

from typing import Optional, TypeVar

from .core import Block, Operation

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

    # --------------------------------------------------------------- insert
    def insert(self, op: _OpT) -> _OpT:
        if self._ip is None:
            raise ValueError("builder has no insertion point")
        return self._ip.insert(op)
