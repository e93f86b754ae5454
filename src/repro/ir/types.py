"""Type system for the repro IR.

The type system mirrors the small subset of MLIR types that HIDA relies on:
scalar integer/float/index types, ranked tensors, memrefs (with optional
layout, partition and memory-space annotations), stream channels, and
function types.  Types are immutable value objects: two types compare equal
iff they describe the same type, and they can be used as dict keys.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

__all__ = [
    "Type",
    "NoneType",
    "IndexType",
    "IntegerType",
    "FloatType",
    "TokenType",
    "TensorType",
    "MemRefType",
    "StreamType",
    "FunctionType",
    "i1",
    "i8",
    "i16",
    "i32",
    "i64",
    "f16",
    "f32",
    "f64",
    "index",
    "none",
    "token",
]


@dataclasses.dataclass(frozen=True)
class Type:
    """Base class for all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden by subclasses
        return self.__class__.__name__


@dataclasses.dataclass(frozen=True)
class NoneType(Type):
    """The unit type, used by ops that produce no meaningful value."""

    def __str__(self) -> str:
        return "none"


@dataclasses.dataclass(frozen=True)
class IndexType(Type):
    """Platform-width integer used for loop induction variables and indices."""

    def __str__(self) -> str:
        return "index"


@dataclasses.dataclass(frozen=True)
class IntegerType(Type):
    """Fixed-width integer type (``i1``, ``i8``, ``i32``, ...)."""

    width: int = 32
    signed: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    @property
    def bitwidth(self) -> int:
        return self.width

    def __str__(self) -> str:
        prefix = "i" if self.signed else "ui"
        return f"{prefix}{self.width}"


@dataclasses.dataclass(frozen=True)
class FloatType(Type):
    """IEEE floating point type (``f16``, ``f32``, ``f64``)."""

    width: int = 32

    def __post_init__(self) -> None:
        if self.width not in (16, 32, 64):
            raise ValueError(f"unsupported float width {self.width}")

    @property
    def bitwidth(self) -> int:
        return self.width

    def __str__(self) -> str:
        return f"f{self.width}"


@dataclasses.dataclass(frozen=True)
class TokenType(Type):
    """Single-bit synchronization token used by elastic node execution."""

    def __str__(self) -> str:
        return "token"


def _check_shape(shape: Sequence[int]) -> Tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    for dim in shape:
        if dim < 0:
            raise ValueError(f"shape dimensions must be non-negative, got {shape}")
    return shape


@dataclasses.dataclass(frozen=True)
class TensorType(Type):
    """Immutable ranked tensor value type (Functional dataflow level)."""

    shape: Tuple[int, ...]
    element_type: Type

    def __init__(self, shape: Sequence[int], element_type: Type) -> None:
        object.__setattr__(self, "shape", _check_shape(shape))
        object.__setattr__(self, "element_type", element_type)

    @property
    def num_elements(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        sep = "x" if dims else ""
        return f"tensor<{dims}{sep}{self.element_type}>"


@dataclasses.dataclass(frozen=True)
class MemRefType(Type):
    """Mutable, addressable buffer type (Structural dataflow level).

    ``memory_space`` distinguishes on-chip (``"bram"``, ``"lutram"``,
    ``"uram"``) from off-chip (``"dram"``) storage, mirroring the buffer
    placement attribute of the HIDA ``buffer`` op.
    """

    shape: Tuple[int, ...]
    element_type: Type
    memory_space: str = "bram"

    def __init__(
        self,
        shape: Sequence[int],
        element_type: Type,
        memory_space: str = "bram",
    ) -> None:
        object.__setattr__(self, "shape", _check_shape(shape))
        object.__setattr__(self, "element_type", element_type)
        object.__setattr__(self, "memory_space", memory_space)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def bitwidth(self) -> int:
        return self.num_elements * self.element_type.bitwidth

    @property
    def is_on_chip(self) -> bool:
        return self.memory_space != "dram"

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        sep = "x" if dims else ""
        return f"memref<{dims}{sep}{self.element_type}, {self.memory_space}>"


@dataclasses.dataclass(frozen=True)
class StreamType(Type):
    """FIFO stream channel type with a bounded number of entries."""

    element_type: Type
    depth: int = 2

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ValueError(f"stream depth must be positive, got {self.depth}")

    def __str__(self) -> str:
        return f"stream<{self.element_type}, {self.depth}>"


@dataclasses.dataclass(frozen=True)
class FunctionType(Type):
    """Type of a function: a list of input types and a list of result types."""

    inputs: Tuple[Type, ...]
    results: Tuple[Type, ...]

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]) -> None:
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "results", tuple(results))

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


# Commonly used singleton-ish instances.
i1 = IntegerType(1)
i8 = IntegerType(8)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
f16 = FloatType(16)
f32 = FloatType(32)
f64 = FloatType(64)
index = IndexType()
none = NoneType()
token = TokenType()
