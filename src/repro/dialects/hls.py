"""HLS directive and primitive IR (ScaleHLS-style Directive/Primitive ops).

HIDA reuses the directive-level IR of ScaleHLS to express HLS pragmas such as
loop pipelining, loop unrolling and array partitioning.  In this
reproduction, pipelining and unrolling live as attributes of
``affine.for`` (see :class:`~repro.dialects.affine.AffineForOp`); this module
defines the array partition directive, which has no natural home on a loop.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..ir.core import Value

__all__ = [
    "PartitionKind",
    "ArrayPartition",
    "partition_of",
    "set_partition",
]


class PartitionKind:
    """Array partition fashions supported by HLS tools."""

    NONE = "none"
    CYCLIC = "cyclic"
    BLOCK = "block"
    COMPLETE = "complete"

    ALL = (NONE, CYCLIC, BLOCK, COMPLETE)


@dataclasses.dataclass(frozen=True)
class ArrayPartition:
    """Per-dimension partition fashion and factor of a buffer.

    ``kinds[i]`` and ``factors[i]`` describe dimension ``i``; the number of
    memory banks instantiated is the product of the factors (a ``complete``
    partition of a dimension uses the dimension size as its factor).
    """

    kinds: Tuple[str, ...]
    factors: Tuple[int, ...]

    def __init__(self, kinds: Sequence[str], factors: Sequence[int]) -> None:
        kinds = tuple(kinds)
        factors = tuple(int(f) for f in factors)
        if len(kinds) != len(factors):
            raise ValueError("partition kinds and factors must have equal length")
        for kind in kinds:
            if kind not in PartitionKind.ALL:
                raise ValueError(f"unknown partition kind {kind!r}")
        for factor in factors:
            if factor < 1:
                raise ValueError(f"partition factors must be >= 1, got {factor}")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def none(cls, rank: int) -> "ArrayPartition":
        return cls([PartitionKind.NONE] * rank, [1] * rank)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def banks(self) -> int:
        total = 1
        for factor in self.factors:
            total *= max(factor, 1)
        return total

    def with_dim(self, dim: int, kind: str, factor: int) -> "ArrayPartition":
        kinds = list(self.kinds)
        factors = list(self.factors)
        kinds[dim] = kind
        factors[dim] = factor
        return ArrayPartition(kinds, factors)

    def __str__(self) -> str:
        inner = ", ".join(
            f"{k}:{f}" for k, f in zip(self.kinds, self.factors)
        )
        return f"partition<[{inner}]>"


# ---------------------------------------------------------------------------
# Partition annotations carried on memref values.
#
# A value has no attribute dictionary, so partitions are attached to the
# operation producing it (alloc, buffer, function argument's owner), keyed by
# result index; helpers below hide this detail.
# ---------------------------------------------------------------------------

_PARTITION_ATTR = "partitions"


def set_partition(value: Value, partition: ArrayPartition) -> None:
    """Attach a partition annotation to the producer of ``value``."""
    owner = value.defining_op
    if owner is None:
        # Block argument: store on the parent op of the owning block.
        block = value.owner
        owner = block.parent_op
        if owner is None:
            raise ValueError("cannot attach a partition to a detached value")
        key = f"arg{value.index}"
    else:
        key = f"result{value.index}"
    table = dict(owner.get_attr(_PARTITION_ATTR, {}))
    table[key] = partition
    owner.set_attr(_PARTITION_ATTR, table)


def partition_of(value: Value) -> Optional[ArrayPartition]:
    """Partition annotation of ``value``, or None if unpartitioned."""
    owner = value.defining_op
    if owner is None:
        block = value.owner
        owner = block.parent_op
        if owner is None:
            return None
        key = f"arg{value.index}"
    else:
        key = f"result{value.index}"
    table = owner.get_attr(_PARTITION_ATTR, {})
    return table.get(key)
