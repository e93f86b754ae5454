"""repro.ir — a compact SSA IR kernel (values, ops, regions).

This package provides the compiler infrastructure substrate that the HIDA
dialects and optimizations are built on.  See :mod:`repro.ir.core` for the
object model; pipelines are :class:`repro.compiler.CompilationStage` lists.
"""

from .builder import Builder, InsertionPoint
from .builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from .core import (
    Block,
    BlockArgument,
    IRError,
    Operation,
    OpResult,
    Region,
    Value,
    WalkOrder,
    create_operation,
    register_operation,
)
from .printer import IRPrinter, fingerprint_op, print_op
from .types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    StreamType,
    TensorType,
    TokenType,
    Type,
    f16,
    f32,
    f64,
    i1,
    i8,
    i16,
    i32,
    i64,
    index,
    none,
    token,
)
from .verifier import VerificationError, verify

__all__ = [
    # core
    "Block",
    "BlockArgument",
    "IRError",
    "Operation",
    "OpResult",
    "Region",
    "Value",
    "WalkOrder",
    "create_operation",
    "register_operation",
    # builtin ops
    "ConstantOp",
    "FuncOp",
    "ModuleOp",
    "ReturnOp",
    # builder
    "Builder",
    "InsertionPoint",
    # printing / verification
    "IRPrinter",
    "fingerprint_op",
    "print_op",
    "VerificationError",
    "verify",
    # types
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
