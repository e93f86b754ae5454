"""HLS C++ emitter: renders the optimized IR as synthesizable-style C++.

This is the last stage of the paper's Figure 3 pipeline: the Structural
dataflow is emitted as HLS C++ with pragmas (``dataflow``, ``pipeline``,
``unroll``, ``array_partition``, ``stream``) that a downstream HLS tool
would consume.  In this reproduction the emitted code is for inspection and
golden tests — there is no downstream tool — but it exercises the same
information the real emitter needs: buffer shapes, partitions, ping-pong
depths, node interfaces, loop bounds and directives.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set

from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
)
from ..dialects.dataflow import BufferOp, NodeOp, ScheduleOp, StreamOp
from ..dialects.memref import AllocOp, CopyOp, GetGlobalOp
from ..ir.builtin import ConstantOp, FuncOp, ModuleOp, ReturnOp
from ..ir.core import Operation, Value
from ..ir.types import FloatType, IntegerType, MemRefType, StreamType, Type

__all__ = ["emit_hls_cpp", "HlsCppEmitter"]


_BINARY_OPERATORS = {
    "arith.addf": "+",
    "arith.subf": "-",
    "arith.mulf": "*",
    "arith.divf": "/",
    "arith.addi": "+",
    "arith.subi": "-",
    "arith.muli": "*",
    "arith.divi": "/",
}

_FUNCTION_OPERATORS = {
    "arith.maxf": "hls::max",
    "arith.minf": "hls::min",
    "arith.maxi": "hls::max",
    "arith.mini": "hls::min",
    "math.exp": "hls::exp",
    "math.sqrt": "hls::sqrt",
}


_AFFINE_OPERATORS = {"add": "+", "mul": "*", "floordiv": "/", "mod": "%"}

#: C and C++ keywords (through C++20) and alternative operator spellings.
_KEYWORDS = frozenset(
    """
    alignas alignof and and_eq asm auto bitand bitor bool break case catch char
    char8_t char16_t char32_t class co_await co_return co_yield compl concept
    const const_cast consteval constexpr constinit continue decltype default
    delete do double dynamic_cast else enum explicit export extern false float
    for friend goto if inline int long mutable namespace new noexcept not not_eq
    nullptr operator or or_eq private protected public register reinterpret_cast
    requires restrict return short signed sizeof static static_assert static_cast
    struct switch template this thread_local throw true try typedef typeid
    typename union unsigned using virtual void volatile wchar_t while xor xor_eq
    """.split()
)

_NOT_IDENTIFIER_CHARACTER = re.compile(r"[^A-Za-z0-9_]")


def _c_identifier(name: str) -> str:
    """``name`` as a C/C++ identifier: every other character becomes ``_``,
    a leading digit gets a ``_`` in front and a keyword one behind."""
    name = _NOT_IDENTIFIER_CHARACTER.sub("_", name)
    if name[:1].isdigit():
        name = f"_{name}"
    return f"{name}_" if name in _KEYWORDS else name


def _affine_to_c(expr: AffineExpr, names: Sequence[str], tight: bool = False) -> str:
    """An affine-map result as a C expression over the index-operand names
    (``tight``: the expression is an operand of ``*``, ``/`` or ``%``).
    Index operands are loop counters, never negative, so C's truncating
    ``/`` and ``%`` agree with ``floordiv`` and ``mod``."""
    if isinstance(expr, AffineDimExpr):
        return names[expr.position]
    if isinstance(expr, AffineConstantExpr):
        return str(expr.value)
    if not isinstance(expr, AffineBinaryExpr):
        raise TypeError(f"cannot emit affine expression {expr!r}")
    lhs = _affine_to_c(expr.lhs, names, expr.kind != "add")
    rhs = _affine_to_c(expr.rhs, names, expr.kind != "add")
    if expr.kind == "ceildiv":
        text = f"({lhs} + {rhs} - 1) / {rhs}"
    else:
        text = f"{lhs} {_AFFINE_OPERATORS[expr.kind]} {rhs}"
    return f"({text})" if tight else text


def _cpp_type(ty: Type) -> str:
    if isinstance(ty, FloatType):
        return {16: "half", 32: "float", 64: "double"}[ty.width]
    if isinstance(ty, IntegerType):
        if ty.width == 1:
            return "bool"
        return f"ap_int<{ty.width}>" if ty.width not in (8, 16, 32, 64) else f"int{ty.width}_t"
    if isinstance(ty, MemRefType):
        return _cpp_type(ty.element_type)
    if isinstance(ty, StreamType):
        return f"hls::stream<{_cpp_type(ty.element_type)}>"
    return "float"


class HlsCppEmitter:
    """Stateful emitter turning a module into HLS C++ source text."""

    def __init__(self, indent_width: int = 2) -> None:
        self._lines: List[str] = []
        self._indent = 0
        self._indent_width = indent_width
        self._names: Dict[int, str] = {}
        self._used: Set[str] = set()
        self._counter = 0

    # ----------------------------------------------------------------- utils
    def _emit(self, line: str = "") -> None:
        pad = " " * (self._indent * self._indent_width)
        self._lines.append(f"{pad}{line}" if line else "")

    def _name(self, value: Value, prefix: str = "v") -> str:
        key = id(value)
        if key not in self._names:
            hint = value.name_hint
            name = _c_identifier(hint) if hint else ""
            stem = f"{name.rstrip('_')}_" if hint else prefix
            while not name or name in self._used:
                name = f"{stem}{self._counter}"
                self._counter += 1
            self._used.add(name)
            self._names[key] = name
        return self._names[key]

    def _array_decl(self, name: str, memref_type: MemRefType) -> str:
        dims = "".join(f"[{d}]" for d in memref_type.shape)
        return f"{_cpp_type(memref_type.element_type)} {name}{dims}"

    # ------------------------------------------------------------ top levels
    def emit_module(self, module: ModuleOp) -> str:
        self._emit("// Generated by the HIDA reproduction HLS C++ emitter.")
        self._emit("#include <ap_int.h>")
        self._emit("#include <hls_math.h>")
        self._emit("#include <hls_stream.h>")
        self._emit("#include <cstdint>")
        self._emit()
        for func in module.functions:
            self.emit_function(func)
            self._emit()
        return "\n".join(self._lines)

    def emit_function(self, func: FuncOp) -> None:
        params = []
        for argument in func.entry_block.arguments:
            name = self._name(argument, prefix="arg")
            if isinstance(argument.type, MemRefType):
                params.append(self._array_decl(name, argument.type))
            else:
                params.append(f"{_cpp_type(argument.type)} {name}")
        self._emit(f"void {_c_identifier(func.sym_name)}({', '.join(params)}) {{")
        self._indent += 1
        if func.is_top:
            for argument in func.entry_block.arguments:
                if isinstance(argument.type, MemRefType) and not argument.type.is_on_chip:
                    self._emit(
                        f"#pragma HLS interface m_axi port={self._name(argument)} "
                        f"bundle=gmem offset=slave"
                    )
        for op in func.entry_block.operations:
            self._emit_op(op)
        self._indent -= 1
        self._emit("}")

    # -------------------------------------------------------------- op cases
    def _emit_op(self, op: Operation) -> None:
        if isinstance(op, (ReturnOp,)) or op.name in ("hida.yield", "affine.yield", "scf.yield"):
            return
        if isinstance(op, ScheduleOp):
            self._emit_schedule(op)
        elif isinstance(op, NodeOp):
            self._emit_node(op)
        elif isinstance(op, BufferOp):
            self._emit_buffer(op)
        elif isinstance(op, StreamOp):
            name = self._name(op.result(), prefix="stream")
            self._emit(f"{_cpp_type(op.result().type)} {name};")
            self._emit(f"#pragma HLS stream variable={name} depth={op.depth}")
        elif isinstance(op, (AllocOp,)):
            name = self._name(op.result(), prefix="buf")
            self._emit(self._array_decl(name, op.memref_type) + ";")
        elif isinstance(op, GetGlobalOp):
            name = self._name(op.result(), prefix="w")
            self._emit(f"extern {self._array_decl(name, op.result().type)}; // {op.symbol}")
        elif isinstance(op, AffineForOp):
            self._emit_loop(op)
        elif isinstance(op, AffineLoadOp):
            self._emit_load(op)
        elif isinstance(op, AffineStoreOp):
            self._emit_store(op)
        elif isinstance(op, ConstantOp):
            name = self._name(op.result(), prefix="c")
            self._emit(f"const {_cpp_type(op.result().type)} {name} = {op.value};")
        elif isinstance(op, CopyOp):
            self._emit(
                f"memcpy({self._name(op.target)}, {self._name(op.source)}, "
                f"sizeof({self._name(op.source)}));"
            )
        elif op.name in _BINARY_OPERATORS:
            name = self._name(op.result(), prefix="t")
            operator = _BINARY_OPERATORS[op.name]
            self._emit(
                f"{_cpp_type(op.result().type)} {name} = "
                f"{self._name(op.operand(0))} {operator} {self._name(op.operand(1))};"
            )
        elif op.name in _FUNCTION_OPERATORS:
            name = self._name(op.result(), prefix="t")
            args = ", ".join(self._name(operand) for operand in op.operands)
            self._emit(
                f"{_cpp_type(op.result().type)} {name} = {_FUNCTION_OPERATORS[op.name]}({args});"
            )
        elif op.name == "hida.stream_read":
            name = self._name(op.result(), prefix="tok")
            self._emit(
                f"{_cpp_type(op.result().type)} {name} = {self._name(op.operand(0))}.read();"
            )
        elif op.name == "hida.stream_write":
            self._emit(
                f"{self._name(op.operand(0))}.write({self._name(op.operand(1))});"
            )
        elif op.name == "affine.apply":
            name = self._name(op.result(), prefix="idx")
            operands = [self._name(operand) for operand in op.operands]
            self._emit(f"int {name} = {_affine_to_c(op.map.results[0], operands)};")
        else:
            self._emit(f"// unhandled op: {op.name}")

    def _emit_schedule(self, schedule: ScheduleOp) -> None:
        label = schedule.label or "dataflow_region"
        self._emit(f"{{ // schedule: {label}")
        self._indent += 1
        self._emit("#pragma HLS dataflow")
        for argument, operand in zip(schedule.body.arguments, schedule.operands):
            self._names[id(argument)] = self._name(operand)
        for op in schedule.body.operations:
            self._emit_op(op)
        self._indent -= 1
        self._emit("}")

    def _emit_node(self, node: NodeOp) -> None:
        label = node.label or "node"
        self._emit(f"{{ // node: {label}")
        self._indent += 1
        for argument, operand in zip(node.body.arguments, node.operands):
            self._names[id(argument)] = self._name(operand)
        for op in node.body.operations:
            self._emit_op(op)
        self._indent -= 1
        self._emit("}")

    def _emit_buffer(self, buffer: BufferOp) -> None:
        name = self._name(buffer.result(), prefix="buf")
        if buffer.is_external:
            self._emit(f"// external (DRAM) buffer: {name}, depth={buffer.depth}")
            self._emit(f"static {self._array_decl(name, buffer.memref_type)};")
            return
        self._emit(self._array_decl(name, buffer.memref_type) + ";")
        if buffer.depth > 1:
            self._emit(
                f"#pragma HLS stream variable={name} depth={buffer.depth} // ping-pong"
            )
        partition = buffer.partition
        for dim, (kind, factor) in enumerate(zip(partition.kinds, partition.factors)):
            if factor > 1:
                self._emit(
                    f"#pragma HLS array_partition variable={name} {kind} "
                    f"factor={factor} dim={dim + 1}"
                )
        self._emit(f"#pragma HLS bind_storage variable={name} type=ram_t2p impl=bram")

    def _emit_loop(self, loop: AffineForOp) -> None:
        iv = self._name(loop.induction_variable, prefix="i")
        self._emit(
            f"for (int {iv} = {loop.lower_bound}; {iv} < {loop.upper_bound}; "
            f"{iv} += {loop.step}) {{"
        )
        self._indent += 1
        if loop.is_pipelined:
            self._emit(f"#pragma HLS pipeline II={loop.target_ii}")
        if loop.unroll_factor > 1:
            self._emit(f"#pragma HLS unroll factor={loop.unroll_factor}")
        for op in loop.body.operations:
            self._emit_op(op)
        self._indent -= 1
        self._emit("}")

    def _subscripts(self, op) -> str:
        names = [self._name(index) for index in op.index_operands]
        return "".join(
            f"[{_affine_to_c(result, names)}]" for result in op.access_map.results
        )

    def _emit_load(self, op: AffineLoadOp) -> None:
        name = self._name(op.result(), prefix="ld")
        self._emit(
            f"{_cpp_type(op.result().type)} {name} = "
            f"{self._name(op.memref)}{self._subscripts(op)};"
        )

    def _emit_store(self, op: AffineStoreOp) -> None:
        self._emit(
            f"{self._name(op.memref)}{self._subscripts(op)} = {self._name(op.value)};"
        )


def emit_hls_cpp(module: ModuleOp) -> str:
    """Emit the whole module as HLS C++ source text."""
    return HlsCppEmitter().emit_module(module)
