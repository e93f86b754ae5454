"""Array partitioning driven by loop unroll factors and access maps.

Array partitioning divides a buffer into banks so that unrolled loop bodies
can access multiple elements per cycle.  Following the HIDA approach, the
partition factor of a buffer dimension is derived from the unroll factors of
the loops indexing that dimension, scaled by the access stride (a stride-2
access with unroll 4 touches a range of 8 elements per cycle).

The resulting :class:`~repro.dialects.hls.ArrayPartition` is attached to the
buffer (``hida.buffer`` attribute or value annotation) and consumed by the
resource model to compute BRAM bank counts (Table 6 of the paper).

With ``strict=True`` the chosen partition is verified against the
dependence engine's bank-conflict model
(:func:`repro.analysis.legality.partition_bank_conflicts`): a partition
whose same-cycle access set still collides in one bank raises
``TransformLegalityError`` instead of silently under-provisioning ports.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Sequence, Tuple, Union

from ..dialects.affine import AffineLoadOp, AffineStoreOp
from ..dialects.dataflow import BufferOp, NodeOp
from ..dialects.hls import ArrayPartition, PartitionKind, partition_of, set_partition
from ..ir.core import Block, BlockArgument, Operation, Value
from ..ir.types import MemRefType

__all__ = [
    "access_partition_demand",
    "partition_for_accesses",
    "partition_buffers_in",
    "partition_factors_of_value",
]

AffineAccess = Union[AffineLoadOp, AffineStoreOp]


def _buffer_shape(buffer: Value) -> Tuple[int, ...]:
    buffer_type = buffer.type
    if isinstance(buffer_type, MemRefType):
        return tuple(int(dim) for dim in buffer_type.shape)
    shape = getattr(buffer_type, "shape", ())
    return tuple(int(dim) for dim in shape)


def access_partition_demand(access: AffineAccess, rank: int) -> List[int]:
    """Per-dimension partition demand of a single affine load/store: the
    unroll factor of the loop driving that dimension times the access stride
    magnitude, 1 where no loop drives it."""
    demand = [1] * rank
    for d, driver in enumerate(access.driving_loops()[:rank]):
        if driver is not None:
            loop, stride = driver
            demand[d] = max(1, loop.unroll_factor * max(abs(stride), 1))
    return demand


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
    shape = _buffer_shape(buffer)
    rank = len(shape)
    factors = [1] * rank
    for access in accesses:
        demand = access_partition_demand(access, rank)
        for d in range(rank):
            factors[d] = max(factors[d], demand[d])
    factors = [min(f, max(int(s), 1)) for f, s in zip(factors, shape)]
    if strict:
        from ..analysis.legality import (
            TransformLegalityError,
            partition_bank_conflicts,
        )

        conflicts = partition_bank_conflicts(buffer, list(accesses), factors)
        if conflicts:
            raise TransformLegalityError(
                "array partition",
                f"clamped factors {factors} leave a bank conflict: "
                f"{conflicts[0].describe()}",
            )
    kinds = [
        PartitionKind.CYCLIC if f > 1 else PartitionKind.NONE for f in factors
    ]
    return ArrayPartition(kinds, factors)


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


def partition_buffers_in(
    top: Operation, strict: bool = False
) -> Dict[int, ArrayPartition]:
    """Derive and attach partitions for every buffer accessed under ``top``.

    Handles both ``hida.buffer`` results (partition stored on the op) and
    plain memref values (annotation attached via the hls dialect helpers).
    Node block arguments are resolved to the schedule-level buffer they alias
    so that demands from all accessing nodes are combined, which is exactly
    the connection-aware behaviour evaluated in Table 6.

    Returns a map from ``id(buffer value)`` to the chosen partition.
    ``strict`` is forwarded to :func:`partition_for_accesses`.
    """
    # Gather accesses per underlying buffer.
    demands: Dict[int, Tuple[Value, List[AffineAccess]]] = {}
    for op in top.walk():
        if not isinstance(op, (AffineLoadOp, AffineStoreOp)):
            continue
        buffer = op.memref
        # Resolve through node block arguments to the outer buffer.
        resolved = _resolve_through_nodes(buffer)
        entry = demands.setdefault(id(resolved), (resolved, []))
        entry[1].append(op)

    chosen: Dict[int, ArrayPartition] = {}
    for key, (buffer, accesses) in demands.items():
        partition = partition_for_accesses(buffer, accesses, strict=strict)
        defining = buffer.defining_op
        if isinstance(defining, BufferOp):
            defining.set_partition(partition)
        else:
            with contextlib.suppress(ValueError):
                set_partition(buffer, partition)
        chosen[key] = partition
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
