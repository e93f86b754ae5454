"""Builtin operations: module, function, return and a generic constant."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .core import Block, Operation, Value, register_operation
from .types import FunctionType, Type

__all__ = ["ModuleOp", "FuncOp", "ReturnOp", "ConstantOp"]


@register_operation
class ModuleOp(Operation):
    """Top-level container of functions and global declarations."""

    OPERATION_NAME = "builtin.module"

    @classmethod
    def create(cls, name: str = "module") -> "ModuleOp":
        op = cls(name=cls.OPERATION_NAME, num_regions=1, attributes={"sym_name": name})
        op.regions[0].add_entry_block()
        return op

    @property
    def functions(self) -> List["FuncOp"]:
        return [op for op in self.body.operations if isinstance(op, FuncOp)]

    def append(self, op: Operation) -> Operation:
        return self.body.append(op)

    def verify(self) -> None:
        names = [f.sym_name for f in self.functions]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate function symbols in module: {names}")


@register_operation
class FuncOp(Operation):
    """A callable function with a single-region body.

    The entry block's arguments carry the function input values.  HIDA marks
    the design's top function with a ``top`` unit attribute.
    """

    OPERATION_NAME = "func.func"

    @classmethod
    def create(
        cls,
        name: str,
        input_types: Sequence[Type] = (),
        result_types: Sequence[Type] = (),
        top: bool = False,
        arg_names: Optional[Sequence[str]] = None,
    ) -> "FuncOp":
        func_type = FunctionType(input_types, result_types)
        attrs: Dict[str, Any] = {"sym_name": name, "function_type": func_type}
        if top:
            attrs["top"] = True
        op = cls(name=cls.OPERATION_NAME, num_regions=1, attributes=attrs)
        entry = op.regions[0].add_entry_block(arg_types=input_types)
        if arg_names:
            for arg, hint in zip(entry.arguments, arg_names):
                arg.name_hint = hint
        return op

    @property
    def sym_name(self) -> str:
        return self.get_attr("sym_name")

    @property
    def function_type(self) -> FunctionType:
        return self.get_attr("function_type")

    @property
    def is_top(self) -> bool:
        return bool(self.get_attr("top", False))

    @property
    def entry_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def arguments(self) -> List[Value]:
        return list(self.entry_block.arguments)

    def verify(self) -> None:
        func_type = self.function_type
        if func_type is None:
            raise ValueError(f"function {self.sym_name!r} is missing its type")
        args = self.entry_block.arguments
        if len(args) != len(func_type.inputs):
            raise ValueError(
                f"function {self.sym_name!r}: entry block has {len(args)} "
                f"arguments but type expects {len(func_type.inputs)}"
            )


@register_operation
class ReturnOp(Operation):
    """Terminator returning zero or more values from a function."""

    OPERATION_NAME = "func.return"

    @classmethod
    def create(cls, operands: Sequence[Value] = ()) -> "ReturnOp":
        return cls(name=cls.OPERATION_NAME, operands=operands)


@register_operation
class ConstantOp(Operation):
    """A typed compile-time constant (integer, float or index)."""

    OPERATION_NAME = "arith.constant"

    @classmethod
    def create(cls, value: Any, type: Type) -> "ConstantOp":
        return cls(
            name=cls.OPERATION_NAME,
            result_types=[type],
            attributes={"value": value},
        )

    @property
    def value(self) -> Any:
        return self.get_attr("value")

