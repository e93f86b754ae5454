"""Array partitioning driven by loop unroll factors and access maps.

Array partitioning divides a buffer into banks so that unrolled loop bodies
can access multiple elements per cycle.  Following the HIDA approach, the
partition factor of a buffer dimension is derived from the unroll factors of
the loops indexing that dimension, scaled by the access stride (a stride-2
access with unroll 4 touches a range of 8 elements per cycle).

The resulting :class:`~repro.dialects.hls.ArrayPartition` is attached to the
buffer (``hida.buffer`` attribute or value annotation) and consumed by the
resource model to compute BRAM bank counts (Table 6 of the paper).

``partition_for_accesses(strict=True)`` verifies the chosen partition
against the dependence engine's bank-conflict model
(:func:`repro.analysis.legality.partition_bank_conflicts`): a partition
whose same-cycle access set still collides in one bank raises
``TransformLegalityError`` instead of silently under-provisioning ports.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.dataflow import BufferOp, NodeOp
from ..dialects.hls import ArrayPartition, PartitionKind, partition_of, set_partition
from ..ir.core import Block, BlockArgument, Operation, Value
from ..ir.types import MemRefType

__all__ = [
    "partition_for_accesses",
    "partition_buffers_in",
    "partition_decoded_accesses",
    "partition_factors_of_value",
]

AffineAccess = Union[AffineLoadOp, AffineStoreOp]
#: An access's ``driving_loops()``: per subscript the loop and stride, or None.
Drivers = Sequence[Optional[Tuple[AffineForOp, int]]]


def _buffer_shape(buffer: Value) -> Tuple[int, ...]:
    buffer_type = buffer.type
    if isinstance(buffer_type, MemRefType):
        return tuple(int(dim) for dim in buffer_type.shape)
    shape = getattr(buffer_type, "shape", ())
    return tuple(int(dim) for dim in shape)


def _partition_of(buffer: Value, drivers_per_access: Iterable[Drivers]) -> ArrayPartition:
    """The cyclic partition whose factor per dimension is the largest demand
    of any access — the unroll factor of the loop driving that dimension
    times the stride magnitude, 1 where no loop drives it — clamped to the
    dimension size."""
    shape = _buffer_shape(buffer)
    factors = [1] * len(shape)
    for drivers in drivers_per_access:
        for d, driver in enumerate(drivers[: len(shape)]):
            if driver is not None:
                loop, stride = driver
                factors[d] = max(factors[d], loop.unroll_factor * max(abs(stride), 1))
    factors = [min(f, max(int(s), 1)) for f, s in zip(factors, shape)]
    kinds = [PartitionKind.CYCLIC if f > 1 else PartitionKind.NONE for f in factors]
    return ArrayPartition(kinds, factors)


def partition_for_accesses(
    buffer: Value, accesses: Sequence[AffineAccess], strict: bool = False
) -> ArrayPartition:
    """Combine the demands of all accesses into one partition for ``buffer``.

    The per-dimension factor is the maximum demand over all accesses; cyclic
    partitioning is used (it matches unrolled innermost access patterns) and
    factors are clamped to the dimension size.

    ``strict=True`` additionally verifies the clamped factors against the
    bank-conflict model and raises ``TransformLegalityError`` when the
    unrolled access set of some dimension still exceeds one bank's ports.
    """
    partition = _partition_of(buffer, [access.driving_loops() for access in accesses])
    if strict:
        from ..analysis.legality import (
            TransformLegalityError,
            partition_bank_conflicts,
        )

        factors = list(partition.factors)
        conflicts = partition_bank_conflicts(buffer, list(accesses), factors)
        if conflicts:
            raise TransformLegalityError(
                "array partition",
                f"clamped factors {factors} leave a bank conflict: "
                f"{conflicts[0].describe()}",
            )
    return partition


def partition_factors_of_value(buffer: Value) -> Tuple[int, ...]:
    """Current partition factors of a buffer value (all ones if none).

    Node and schedule block arguments are resolved to the underlying buffer
    they alias, so queries made from inside an isolated node see the
    partition chosen at the schedule level.
    """
    buffer = _resolve_through_nodes(buffer)
    defining = buffer.defining_op
    if isinstance(defining, BufferOp):
        return tuple(defining.partition.factors)
    partition = partition_of(buffer)
    if partition is not None:
        return tuple(partition.factors)
    return tuple([1] * len(_buffer_shape(buffer)))


def partition_buffers_in(top: Operation) -> Dict[int, ArrayPartition]:
    """Derive and attach partitions for every buffer accessed under ``top``.

    Handles both ``hida.buffer`` results (partition stored on the op) and
    plain memref values (annotation attached via the hls dialect helpers).
    Node block arguments are resolved to the schedule-level buffer they alias
    so that demands from all accessing nodes are combined, which is exactly
    the connection-aware behaviour evaluated in Table 6.

    Returns a map from ``id(buffer value)`` to the chosen partition.
    """
    walked = [op for op in top.walk() if isinstance(op, (AffineLoadOp, AffineStoreOp))]
    return _attach_partitions(
        ((_resolve_through_nodes(op.memref), op) for op in walked), partition_for_accesses
    )


def partition_decoded_accesses(
    accesses: Iterable[Tuple[Value, Drivers]]
) -> Dict[int, ArrayPartition]:
    """:func:`partition_buffers_in` over accesses already decoded, as
    ``(buffer, driving_loops())`` pairs in program order, each buffer
    already resolved through node block arguments."""
    return _attach_partitions(accesses, _partition_of)


def _attach_partitions(
    accesses: Iterable[Tuple[Value, Any]], choose: Callable[[Value, list], ArrayPartition]
) -> Dict[int, ArrayPartition]:
    """Group ``(buffer, access)`` pairs by buffer (each already resolved
    through node block arguments), then attach ``choose(buffer, group)``."""
    groups: Dict[int, Tuple[Value, list]] = {}
    for buffer, access in accesses:
        groups.setdefault(id(buffer), (buffer, []))[1].append(access)
    chosen: Dict[int, ArrayPartition] = {}
    for key, (buffer, group) in groups.items():
        partition = chosen[key] = choose(buffer, group)
        defining = buffer.defining_op
        if isinstance(defining, BufferOp):
            defining.set_partition(partition)
        else:
            with contextlib.suppress(ValueError):
                set_partition(buffer, partition)
    return chosen


def _resolve_through_nodes(buffer: Value) -> Value:
    """Map a node/schedule block argument back to the buffer passed in."""
    current = buffer
    seen = 0
    while seen < 16:
        seen += 1
        owner = current.owner
        if not isinstance(owner, Block) or not isinstance(current, BlockArgument):
            return current
        parent = owner.parent_op
        if isinstance(parent, NodeOp) or (
            parent is not None and parent.name == "hida.schedule"
        ):
            index = current.index
            if index < parent.num_operands:
                current = parent.operand(index)
                continue
        return current
    return current
