"""HIDA-IR: the hierarchical dataflow dialect (Functional + Structural).

This module implements the key operations of Table 3 in the paper:

Functional dataflow (transparent from above, drives algorithmic
optimization and task fusion):

* :class:`DispatchOp` — launches multiple tasks in its region;
* :class:`TaskOp` — owns a transparent region, may contain nested
  dispatch ops with sub-tasks, yields tensor results.

Structural dataflow (isolated from above, drives scheduling and
parallelization):

* :class:`ScheduleOp` — an isolated region with multiple nodes, carrying
  explicit scheduling information;
* :class:`NodeOp` — an isolated region with explicit per-argument I/O
  memory-effect information;
* :class:`BufferOp` — a memory-mapped buffer with ping-pong semantics and
  partition / tiling / vectorization / placement attributes;
* :class:`StreamOp` plus read/write ops — FIFO stream channels (single-bit
  streams are used as synchronization tokens for elastic node execution).

Module interface:

* :class:`PortOp`, :class:`BundleOp`, :class:`PackOp` — memory or stream
  ports, named port bundles, and packing of an external memory block into a
  port.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..ir.core import Block, Operation, Value, register_operation
from ..ir.types import MemRefType, StreamType, Type, i1
from .hls import ArrayPartition

__all__ = [
    "MemoryEffect",
    "BufferLayout",
    "DispatchOp",
    "TaskOp",
    "YieldOp",
    "ScheduleOp",
    "NodeOp",
    "BufferOp",
    "StreamOp",
    "StreamReadOp",
    "StreamWriteOp",
    "PortOp",
    "BundleOp",
    "PackOp",
    "get_producers",
    "get_consumers",
    "get_node_users",
    "is_external_buffer",
]


class MemoryEffect:
    """Explicit memory effects carried by node arguments."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "readwrite"
    PARAM = "param"

    ALL = (READ, WRITE, READ_WRITE, PARAM)

    @staticmethod
    def reads(effect: str) -> bool:
        return effect in (MemoryEffect.READ, MemoryEffect.READ_WRITE)

    @staticmethod
    def writes(effect: str) -> bool:
        return effect in (MemoryEffect.WRITE, MemoryEffect.READ_WRITE)


@dataclasses.dataclass(frozen=True)
class BufferLayout:
    """Data layout of a buffer: per-dimension tiling and vectorization factors.

    Mirrors the ``#hida.layout<[tiles], [vectors]>`` attribute in Figure 4 of
    the paper; both are convertible to semi-affine maps for polyhedral
    analysis (see :meth:`to_affine_map`).
    """

    tile_factors: Tuple[int, ...]
    vector_factors: Tuple[int, ...]

    def __init__(
        self, tile_factors: Sequence[int], vector_factors: Optional[Sequence[int]] = None
    ) -> None:
        tiles = tuple(int(t) for t in tile_factors)
        vectors = tuple(int(v) for v in (vector_factors or [1] * len(tiles)))
        if len(tiles) != len(vectors):
            raise ValueError("tile and vector factor ranks must match")
        if any(t < 1 for t in tiles) or any(v < 1 for v in vectors):
            raise ValueError("layout factors must be >= 1")
        object.__setattr__(self, "tile_factors", tiles)
        object.__setattr__(self, "vector_factors", vectors)

    @classmethod
    def default(cls, rank: int) -> "BufferLayout":
        return cls([1] * rank, [1] * rank)

    @property
    def rank(self) -> int:
        return len(self.tile_factors)

    def to_affine_map(self):
        """Semi-affine map (d_i) -> (d_i floordiv T_i, d_i mod T_i) flattened."""
        from .affine_map import AffineMap, dim

        results = []
        for i, tile in enumerate(self.tile_factors):
            if tile > 1:
                results.append(dim(i) // tile)
                results.append(dim(i) % tile)
            else:
                results.append(dim(i))
        return AffineMap(self.rank, 0, results)

    def __str__(self) -> str:
        return f"layout<{list(self.tile_factors)}, {list(self.vector_factors)}>"


# ---------------------------------------------------------------------------
# Functional dataflow
# ---------------------------------------------------------------------------


@register_operation
class DispatchOp(Operation):
    """Launches multiple tasks in its (transparent) region."""

    OPERATION_NAME = "hida.dispatch"

    @classmethod
    def create(cls, result_types: Sequence[Type] = ()) -> "DispatchOp":
        op = cls(
            name=cls.OPERATION_NAME,
            result_types=result_types,
            num_regions=1,
        )
        op.regions[0].add_entry_block()
        return op

    @property
    def tasks(self) -> List["TaskOp"]:
        return [op for op in self.body.operations if isinstance(op, TaskOp)]

    def verify(self) -> None:
        if not self.regions:
            raise ValueError("hida.dispatch must own a region")


@register_operation
class TaskOp(Operation):
    """A dataflow task owning a transparent region.

    Results are the values yielded by the terminating :class:`YieldOp`; at
    the Functional level these are typically tensors that downstream tasks
    consume directly.
    """

    OPERATION_NAME = "hida.task"

    @classmethod
    def create(
        cls,
        result_types: Sequence[Type] = (),
        label: str = "",
    ) -> "TaskOp":
        op = cls(
            name=cls.OPERATION_NAME,
            result_types=result_types,
            attributes={"label": label} if label else {},
            num_regions=1,
        )
        op.regions[0].add_entry_block()
        return op

    @property
    def label(self) -> str:
        return self.get_attr("label", "")

    @property
    def yield_op(self) -> Optional["YieldOp"]:
        last = self.body.last_op
        return last if isinstance(last, YieldOp) else None

    @property
    def sub_dispatches(self) -> List[DispatchOp]:
        return [op for op in self.body.operations if isinstance(op, DispatchOp)]

    def payload_ops(self) -> List[Operation]:
        """Ops in the task body excluding the terminator."""
        return [op for op in self.body.operations if not isinstance(op, YieldOp)]

    def verify(self) -> None:
        yield_op = self.yield_op
        num_yielded = yield_op.num_operands if yield_op else 0
        if num_yielded != self.num_results:
            raise ValueError(
                f"hida.task yields {num_yielded} values but has "
                f"{self.num_results} results"
            )


@register_operation
class YieldOp(Operation):
    """Terminator yielding task / dispatch results."""

    OPERATION_NAME = "hida.yield"

    @classmethod
    def create(cls, operands: Sequence[Value] = ()) -> "YieldOp":
        return cls(name=cls.OPERATION_NAME, operands=operands)


# ---------------------------------------------------------------------------
# Structural dataflow
# ---------------------------------------------------------------------------


@register_operation
class ScheduleOp(Operation):
    """An isolated region with multiple nodes and explicit scheduling info."""

    OPERATION_NAME = "hida.schedule"

    ISOLATED_FROM_ABOVE = True

    @classmethod
    def create(cls, operands: Sequence[Value] = (), label: str = "") -> "ScheduleOp":
        op = cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            attributes={"label": label} if label else {},
            num_regions=1,
        )
        op.regions[0].add_entry_block(arg_types=[v.type for v in operands])
        return op

    @property
    def label(self) -> str:
        return self.get_attr("label", "")

    @property
    def nodes(self) -> List["NodeOp"]:
        return [op for op in self.body.operations if isinstance(op, NodeOp)]

    @property
    def buffers(self) -> List["BufferOp"]:
        return [op for op in self.body.operations if isinstance(op, BufferOp)]

    @property
    def streams(self) -> List["StreamOp"]:
        return [op for op in self.body.operations if isinstance(op, StreamOp)]

    def block_argument_for(self, operand_index: int) -> Value:
        return self.body.arguments[operand_index]

    def add_operand_with_argument(self, value: Value) -> Value:
        """Pass one more external value into the schedule; returns its block arg."""
        self.append_operand(value)
        return self.body.add_argument(value.type, name_hint=value.name_hint)

    def verify(self) -> None:
        if len(self.body.arguments) != self.num_operands:
            raise ValueError(
                "hida.schedule block arguments must match its operands"
            )


@register_operation
class NodeOp(Operation):
    """A dataflow node with an isolated region and explicit memory effects.

    Operands are grouped by their memory effect, mirroring the RO / RW / out
    argument lists of Figure 4.  Each operand has a matching block argument
    of the same type inside the node body.
    """

    OPERATION_NAME = "hida.node"

    ISOLATED_FROM_ABOVE = True

    @classmethod
    def create(
        cls,
        inputs: Sequence[Value] = (),
        outputs: Sequence[Value] = (),
        inouts: Sequence[Value] = (),
        params: Sequence[Value] = (),
        label: str = "",
    ) -> "NodeOp":
        operands = [*inputs, *outputs, *inouts, *params]
        effects = (
            [MemoryEffect.READ] * len(inputs)
            + [MemoryEffect.WRITE] * len(outputs)
            + [MemoryEffect.READ_WRITE] * len(inouts)
            + [MemoryEffect.PARAM] * len(params)
        )
        op = cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            attributes={"effects": effects, "label": label},
            num_regions=1,
        )
        body = op.regions[0].add_entry_block(arg_types=[v.type for v in operands])
        for arg, value in zip(body.arguments, operands):
            arg.name_hint = value.name_hint
        return op

    # ------------------------------------------------------------ attributes
    @property
    def label(self) -> str:
        return self.get_attr("label", "")

    @property
    def effects(self) -> List[str]:
        return list(self.get_attr("effects", []))

    # --------------------------------------------------------------- queries
    def _operands_with_effect(self, predicate) -> List[Tuple[int, Value]]:
        return [
            (i, v)
            for i, (v, e) in enumerate(zip(self.operands, self.effects))
            if predicate(e)
        ]

    @property
    def inputs(self) -> List[Value]:
        return [v for _, v in self._operands_with_effect(lambda e: e == MemoryEffect.READ)]

    @property
    def outputs(self) -> List[Value]:
        return [v for _, v in self._operands_with_effect(lambda e: e == MemoryEffect.WRITE)]

    @property
    def inouts(self) -> List[Value]:
        return [
            v for _, v in self._operands_with_effect(lambda e: e == MemoryEffect.READ_WRITE)
        ]

    @property
    def params(self) -> List[Value]:
        return [v for _, v in self._operands_with_effect(lambda e: e == MemoryEffect.PARAM)]

    def _effects_on(self, value: Value) -> List[str]:
        """Effect of every operand slot holding ``value``, read off its use list."""
        effects = self.get_attr("effects", ())
        return [effects[i] for user, i in value._uses if user is self and i < len(effects)]

    def reads(self, value: Value) -> bool:
        """True if this node reads from ``value`` (READ or READ_WRITE)."""
        return any(map(MemoryEffect.reads, self._effects_on(value)))

    def writes(self, value: Value) -> bool:
        """True if this node writes to ``value`` (WRITE or READ_WRITE)."""
        return any(map(MemoryEffect.writes, self._effects_on(value)))

    def uses_value(self, value: Value) -> bool:
        return any(operand is value for operand in self.operands)

    def block_argument_for(self, operand: Value) -> Value:
        """Block argument corresponding to a specific operand value."""
        for i, candidate in enumerate(self.operands):
            if candidate is operand:
                return self.body.arguments[i]
        raise ValueError("value is not an operand of this node")

    def add_operand_with_argument(self, value: Value, effect: str) -> Value:
        """Add an extra operand (with the given effect); returns the block arg."""
        self.append_operand(value)
        effects = self.effects
        effects.append(effect)
        self.set_attr("effects", effects)
        return self.body.add_argument(value.type, name_hint=value.name_hint)

    def replace_operand(self, old: Value, new: Value) -> None:
        """Rewrite uses of ``old`` as an operand of this node with ``new``."""
        for i, operand in enumerate(self.operands):
            if operand is old:
                self.set_operand(i, new)

    def verify(self) -> None:
        if len(self.effects) != self.num_operands:
            raise ValueError("hida.node effects list must match operand count")
        for effect in self.effects:
            if effect not in MemoryEffect.ALL:
                raise ValueError(f"unknown memory effect {effect!r}")
        if len(self.body.arguments) != self.num_operands:
            raise ValueError("hida.node block arguments must match operands")


@register_operation
class BufferOp(Operation):
    """A memory-mapped buffer with ping-pong semantics.

    Attributes mirror Figure 4: ``depth`` (number of ping-pong stages),
    ``partition`` (an :class:`~repro.dialects.hls.ArrayPartition`),
    ``layout`` (a :class:`BufferLayout`) and ``memory_kind`` (``bram_t2p``,
    ``bram_s2p``, ``uram``, ``lutram``, or ``dram`` for external placement).
    """

    OPERATION_NAME = "hida.buffer"

    @classmethod
    def create(
        cls,
        memref_type: MemRefType,
        depth: int = 1,
        partition: Optional[ArrayPartition] = None,
        layout: Optional[BufferLayout] = None,
        memory_kind: str = "bram_t2p",
        name_hint: Optional[str] = None,
    ) -> "BufferOp":
        rank = memref_type.rank
        op = cls(
            name=cls.OPERATION_NAME,
            result_types=[memref_type],
            attributes={
                "depth": int(depth),
                "partition": partition or ArrayPartition.none(rank),
                "layout": layout or BufferLayout.default(rank),
                "memory_kind": memory_kind,
            },
        )
        if name_hint:
            op.result().name_hint = name_hint
        return op

    @property
    def memref_type(self) -> MemRefType:
        return self.result().type

    @property
    def depth(self) -> int:
        return self.get_attr("depth", 1)

    def set_depth(self, depth: int) -> None:
        self.set_attr("depth", int(depth))

    @property
    def partition(self) -> ArrayPartition:
        return self.get_attr("partition")

    def set_partition(self, partition: ArrayPartition) -> None:
        self.set_attr("partition", partition)

    @property
    def layout(self) -> BufferLayout:
        return self.get_attr("layout")

    @property
    def memory_kind(self) -> str:
        return self.get_attr("memory_kind", "bram_t2p")

    def set_memory_kind(self, kind: str) -> None:
        self.set_attr("memory_kind", kind)

    @property
    def is_external(self) -> bool:
        return self.memory_kind == "dram" or not self.memref_type.is_on_chip

    def verify(self) -> None:
        if self.depth < 1:
            raise ValueError("hida.buffer depth must be >= 1")
        if self.partition.rank != self.memref_type.rank:
            raise ValueError("hida.buffer partition rank mismatch")


@register_operation
class StreamOp(Operation):
    """A FIFO stream channel with a bounded number of entries.

    Single-bit streams (element type ``i1``) are used as synchronization
    tokens for elastic node execution when buffers are spilled to external
    memory.
    """

    OPERATION_NAME = "hida.stream"

    @classmethod
    def create(
        cls,
        element_type: Type = i1,
        depth: int = 2,
        name_hint: Optional[str] = None,
    ) -> "StreamOp":
        op = cls(
            name=cls.OPERATION_NAME,
            result_types=[StreamType(element_type, depth)],
        )
        if name_hint:
            op.result().name_hint = name_hint
        return op

    @property
    def stream_type(self) -> StreamType:
        return self.result().type

    @property
    def depth(self) -> int:
        return self.stream_type.depth

    @property
    def is_token(self) -> bool:
        element = self.stream_type.element_type
        return getattr(element, "width", None) == 1


@register_operation
class StreamReadOp(Operation):
    """Blocking read of one element from a stream channel."""

    OPERATION_NAME = "hida.stream_read"

    @classmethod
    def create(cls, stream: Value) -> "StreamReadOp":
        stream_type: StreamType = stream.type
        return cls(
            name=cls.OPERATION_NAME,
            operands=[stream],
            result_types=[stream_type.element_type],
        )

    @property
    def stream(self) -> Value:
        return self.operand(0)


@register_operation
class StreamWriteOp(Operation):
    """Blocking write of one element to a stream channel."""

    OPERATION_NAME = "hida.stream_write"

    @classmethod
    def create(cls, stream: Value, value: Value) -> "StreamWriteOp":
        return cls(name=cls.OPERATION_NAME, operands=[stream, value])

    @property
    def stream(self) -> Value:
        return self.operand(0)

    @property
    def value(self) -> Value:
        return self.operand(1)


# ---------------------------------------------------------------------------
# Module interface
# ---------------------------------------------------------------------------


@register_operation
class PortOp(Operation):
    """A memory-mapped or stream port with explicit type and latency."""

    OPERATION_NAME = "hida.port"

    @classmethod
    def create(
        cls,
        port_type: Type,
        kind: str = "memory",
        latency: int = 64,
        name: str = "",
    ) -> "PortOp":
        return cls(
            name=cls.OPERATION_NAME,
            result_types=[port_type],
            attributes={"kind": kind, "latency": latency, "port_name": name},
        )

    @property
    def kind(self) -> str:
        return self.get_attr("kind")

    @property
    def latency(self) -> int:
        return self.get_attr("latency", 64)


@register_operation
class BundleOp(Operation):
    """A named bundle of ports (e.g. one AXI interface shared by buffers)."""

    OPERATION_NAME = "hida.bundle"

    @classmethod
    def create(cls, ports: Sequence[Value], name: str = "gmem") -> "BundleOp":
        return cls(
            name=cls.OPERATION_NAME,
            operands=list(ports),
            attributes={"bundle_name": name},
        )


@register_operation
class PackOp(Operation):
    """Pack an external memory block into a port."""

    OPERATION_NAME = "hida.pack"

    @classmethod
    def create(cls, memory: Value, port: Value, offset: int = 0) -> "PackOp":
        return cls(
            name=cls.OPERATION_NAME,
            operands=[memory, port],
            attributes={"offset": offset},
        )

    @property
    def offset(self) -> int:
        return self.get_attr("offset", 0)


# ---------------------------------------------------------------------------
# Dataflow graph queries
# ---------------------------------------------------------------------------


def get_node_users(buffer: Value) -> List[NodeOp]:
    """All nodes that take ``buffer`` as an operand, in program order."""
    users = [op for op in buffer.users if isinstance(op, NodeOp)]
    block = users[0].parent if users else None
    if block is not None:
        users.sort(key=lambda n: block.index_of(n) if n.parent is block else 1 << 30)
    return users


def get_producers(buffer: Value) -> List[NodeOp]:
    """Nodes with a write effect on ``buffer``."""
    return [node for node in get_node_users(buffer) if node.writes(buffer)]


def get_consumers(buffer: Value) -> List[NodeOp]:
    """Nodes with a read effect on ``buffer``."""
    return [node for node in get_node_users(buffer) if node.reads(buffer)]


def is_external_buffer(buffer: Value, schedule: ScheduleOp) -> bool:
    """Whether ``buffer`` is allocated outside ``schedule``'s region.

    External buffers may be observed by nodes outside the schedule, so
    multi-producer elimination must fall back to node fusion (Algorithm 3,
    lines 11-13).
    """
    buffer_op = buffer.defining_op
    if buffer_op is None:
        # A block argument of the schedule or an ancestor: external.
        return True
    return not schedule.is_ancestor_of(buffer_op)
