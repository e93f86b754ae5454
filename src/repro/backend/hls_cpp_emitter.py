"""HLS C++ emitter: renders the optimized IR as synthesizable-style C++.

This is the last stage of the paper's Figure 3 pipeline: the Structural
dataflow is emitted as HLS C++ with pragmas (``dataflow``, ``pipeline``,
``unroll``, ``array_partition``, ``stream``) that a downstream HLS tool
would consume.  In this reproduction the emitted code is for inspection and
golden tests — there is no downstream tool — but it exercises the same
information the real emitter needs: buffer shapes, partitions, ping-pong
depths, node interfaces, loop bounds and directives.

Each op is emitted by the handler its name maps to in :data:`_HANDLERS`; an
op kind without a handler, or a type without a C++ spelling, is an error.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, cast

from ..dialects.affine_map import AffineBinaryExpr, AffineConstantExpr, AffineDimExpr, AffineExpr
from ..ir.builtin import FuncOp, ModuleOp
from ..ir.core import Block, Operation, Value
from ..ir.types import FloatType, IndexType, IntegerType, MemRefType, StreamType, Type

__all__ = ["emit_hls_cpp", "HlsCppEmitter"]


#: An op with one result: ``(name prefix, C++ expression over the operand
#: names)``.  affine.apply's expression is its map's result instead.
_EXPRESSIONS: Dict[str, Tuple[str, Optional[str]]] = {
    "arith.addf": ("t", "{0} + {1}"),
    "arith.subf": ("t", "{0} - {1}"),
    "arith.mulf": ("t", "{0} * {1}"),
    "arith.divf": ("t", "{0} / {1}"),
    "arith.maxf": ("t", "hls::max({0}, {1})"),
    "math.sqrt": ("t", "hls::sqrt({0})"),
    "hida.stream_read": ("tok", "{0}.read()"),
    "affine.apply": ("idx", None),
}

#: An op without results: a C++ statement over the operand names.
_STATEMENTS: Dict[str, str] = {
    "hida.stream_write": "{0}.write({1});",
    "memref.copy": "memcpy({1}, {0}, sizeof({0}));",
}

#: An op declaring an array: ``(name prefix, declaration)`` over the array
#: declarator and the op's ``symbol``.
_DECLARATIONS: Dict[str, Tuple[str, str]] = {
    "memref.alloc": ("buf", "{0};"),
    "memref.get_global": ("w", "extern {0}; // {1}"),
}

_AFFINE_OPERATORS = {"add": "+", "mul": "*", "floordiv": "/", "mod": "%"}

_FLOAT_TYPES = {16: "half", 32: "float", 64: "double"}

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


@functools.lru_cache(maxsize=4096)
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
    if type(expr) is AffineDimExpr:
        return names[expr.position]
    if type(expr) is AffineConstantExpr:
        return str(expr.value)
    if type(expr) is not AffineBinaryExpr:
        raise TypeError(f"cannot emit affine expression {expr!r}")
    lhs = _affine_to_c(expr.lhs, names, expr.kind != "add")
    rhs = _affine_to_c(expr.rhs, names, expr.kind != "add")
    text = f"{lhs} {_AFFINE_OPERATORS[expr.kind]} {rhs}"
    return f"({text})" if tight else text


def _cpp_type(ty: Type) -> str:
    """The C++ spelling of a scalar type, of a memref's element type, or of
    a stream; any other type raises a ``TypeError`` naming it."""
    if type(ty) is FloatType and ty.width in _FLOAT_TYPES:
        return _FLOAT_TYPES[ty.width]
    if type(ty) is IntegerType:
        if ty.width == 1:
            return "bool"
        return f"ap_int<{ty.width}>" if ty.width not in (8, 16, 32, 64) else f"int{ty.width}_t"
    if type(ty) is IndexType:
        return "int"
    if type(ty) is MemRefType:
        return _cpp_type(ty.element_type)
    if type(ty) is StreamType:
        return f"hls::stream<{_cpp_type(ty.element_type)}>"
    raise TypeError(f"no HLS C++ type for {ty}")


def _subscripts(op: Operation, indices: Sequence[str]) -> str:
    """``[subscript]...`` of an affine load or store: its access map's
    results over the index-operand names."""
    text = ""
    for expr in op.attributes["map"].results:
        text += f"[{_affine_to_c(expr, indices)}]"
    return text


def _array_decl(name: str, memref_type: MemRefType) -> str:
    dims = ""
    for size in memref_type.shape:
        dims += f"[{size}]"
    return f"{_cpp_type(memref_type.element_type)} {name}{dims}"


class HlsCppEmitter:
    """Stateful emitter turning a module into HLS C++ source text."""

    def __init__(self, indent_width: int = 2) -> None:
        self._lines: List[str] = []
        self._unit = " " * indent_width  # one nesting level's pad
        self._names: Dict[Value, str] = {}
        self._used: Set[str] = set()
        self._counter = 0

    # ----------------------------------------------------------------- utils
    def _name(self, value: Value, prefix: str = "v") -> str:
        names = self._names
        if value in names:
            return names[value]
        hint = value.name_hint
        name = _c_identifier(hint) if hint else ""
        stem = f"{name.rstrip('_')}_" if hint else prefix
        used = self._used
        while not name or name in used:
            name = f"{stem}{self._counter}"
            self._counter += 1
        used.add(name)
        names[value] = name
        return name

    def _names_of(self, values: Sequence[Value]) -> List[str]:
        names = self._names
        return [names[value] if value in names else self._name(value) for value in values]

    # ------------------------------------------------------------ top levels
    def emit_module(self, module: ModuleOp) -> str:
        self._lines.append("// Generated by the HIDA reproduction HLS C++ emitter.")
        for header in ("ap_int.h", "hls_math.h", "hls_stream.h", "cstdint"):
            self._lines.append(f"#include <{header}>")
        self._lines.append("")
        for func in module.functions:
            self.emit_function(func)
            self._lines.append("")
        return "\n".join(self._lines)

    def emit_function(self, func: FuncOp) -> None:
        arguments = func.entry_block.arguments
        params = []
        for argument in arguments:
            name = self._name(argument, prefix="arg")
            ty = argument.type
            decl = _array_decl(name, ty) if type(ty) is MemRefType else f"{_cpp_type(ty)} {name}"
            params.append(decl)
        lines = self._lines
        lines.append(f"void {_c_identifier(func.sym_name)}({', '.join(params)}) {{")
        pad = self._unit
        if func.is_top:
            for argument in arguments:
                ty = argument.type
                if type(ty) is MemRefType and ty.memory_space == "dram":
                    lines.append(
                        f"{pad}#pragma HLS interface m_axi port={self._names[argument]} "
                        f"bundle=gmem offset=slave"
                    )
        self._emit_block(func.entry_block, pad)
        lines.append("}")

    def _emit_block(self, block: Block, pad: str) -> None:
        for op in block.operations:
            try:
                handler = _HANDLERS[op.name]
            except KeyError:
                raise NotImplementedError(
                    f"HLS C++ emission has no handler for op '{op.name}'"
                ) from None
            if handler is not None:
                handler(self, op, pad)

    def _emit_isolated_body(self, op: Operation, pad: str) -> None:
        """A schedule's or node's body, its arguments named as its operands."""
        body = op.regions[0].blocks[0]
        self._names.update(zip(body.arguments, self._names_of(op.operands)))
        self._emit_block(body, pad)

    # -------------------------------------------------------------- handlers
    def _emit_schedule(self, op: Operation, pad: str) -> None:
        inner = pad + self._unit
        label = op.attributes.get("label") or "dataflow_region"
        self._lines.extend((f"{pad}{{ // schedule: {label}", f"{inner}#pragma HLS dataflow"))
        self._emit_isolated_body(op, inner)
        self._lines.append(f"{pad}}}")

    def _emit_node(self, op: Operation, pad: str) -> None:
        self._lines.append(f"{pad}{{ // node: {op.attributes.get('label') or 'node'}")
        self._emit_isolated_body(op, pad + self._unit)
        self._lines.append(f"{pad}}}")

    def _emit_buffer(self, op: Operation, pad: str) -> None:
        attributes = op.attributes
        result = op.results[0]
        memref_type = cast(MemRefType, result.type)
        name = self._name(result, prefix="buf")
        depth = attributes.get("depth", 1)
        decl = _array_decl(name, memref_type)
        lines = self._lines
        if attributes.get("memory_kind") == "dram" or memref_type.memory_space == "dram":
            lines.append(f"{pad}// external (DRAM) buffer: {name}, depth={depth}")
            lines.append(f"{pad}static {decl};")
            return
        lines.append(f"{pad}{decl};")
        if depth > 1:
            lines.append(f"{pad}#pragma HLS stream variable={name} depth={depth} // ping-pong")
        partition = attributes["partition"]
        for dim, (kind, factor) in enumerate(zip(partition.kinds, partition.factors)):
            if factor > 1:
                lines.append(
                    f"{pad}#pragma HLS array_partition variable={name} {kind} "
                    f"factor={factor} dim={dim + 1}"
                )
        lines.append(f"{pad}#pragma HLS bind_storage variable={name} type=ram_t2p impl=bram")

    def _emit_stream(self, op: Operation, pad: str) -> None:
        result = op.results[0]
        stream_type = cast(StreamType, result.type)
        name = self._name(result, prefix="stream")
        self._lines.append(f"{pad}{_cpp_type(stream_type)} {name};")
        self._lines.append(f"{pad}#pragma HLS stream variable={name} depth={stream_type.depth}")

    def _emit_declaration(self, op: Operation, pad: str) -> None:
        prefix, declaration = _DECLARATIONS[op.name]
        result = op.results[0]
        decl = _array_decl(self._name(result, prefix), cast(MemRefType, result.type))
        self._lines.append(pad + declaration.format(decl, op.attributes.get("symbol")))

    def _emit_loop(self, op: Operation, pad: str) -> None:
        attributes = op.attributes
        body = op.regions[0].blocks[0]
        iv = self._name(body.arguments[0], prefix="i")
        lines = self._lines
        lines.append(
            f"{pad}for (int {iv} = {attributes['lower_bound']}; "
            f"{iv} < {attributes['upper_bound']}; {iv} += {attributes['step']}) {{"
        )
        inner = pad + self._unit
        if attributes.get("pipeline"):
            lines.append(f"{inner}#pragma HLS pipeline II={int(attributes.get('target_ii', 1))}")
        unroll_factor = int(attributes.get("unroll_factor", 1))
        if unroll_factor > 1:
            lines.append(f"{inner}#pragma HLS unroll factor={unroll_factor}")
        self._emit_block(body, inner)
        lines.append(f"{pad}}}")

    def _emit_load(self, op: Operation, pad: str) -> None:
        result = op.results[0]
        name = self._name(result, prefix="ld")
        memref, *indices = self._names_of(op.operands)
        self._lines.append(
            f"{pad}{_cpp_type(result.type)} {name} = {memref}{_subscripts(op, indices)};"
        )

    def _emit_store(self, op: Operation, pad: str) -> None:
        value, memref, *indices = self._names_of(op.operands)
        self._lines.append(f"{pad}{memref}{_subscripts(op, indices)} = {value};")

    def _emit_constant(self, op: Operation, pad: str) -> None:
        result = op.results[0]
        name = self._name(result, prefix="c")
        value = op.attributes["value"]
        self._lines.append(f"{pad}const {_cpp_type(result.type)} {name} = {value};")

    def _emit_expression(self, op: Operation, pad: str) -> None:
        prefix, template = _EXPRESSIONS[op.name]
        result = op.results[0]
        name = self._name(result, prefix)
        operands = self._names_of(op.operands)
        if template is None:  # affine.apply
            expression = _affine_to_c(op.attributes["map"].results[0], operands)
        else:
            expression = template.format(*operands)
        self._lines.append(f"{pad}{_cpp_type(result.type)} {name} = {expression};")

    def _emit_statement(self, op: Operation, pad: str) -> None:
        self._lines.append(pad + _STATEMENTS[op.name].format(*self._names_of(op.operands)))


_Handler = Callable[[HlsCppEmitter, Operation, str], None]

#: Op name -> its handler, or None for a terminator that emits nothing.
_HANDLERS: Dict[str, Optional[_Handler]] = {
    "func.return": None,
    "hida.yield": None,
    "hida.schedule": HlsCppEmitter._emit_schedule,
    "hida.node": HlsCppEmitter._emit_node,
    "hida.buffer": HlsCppEmitter._emit_buffer,
    "hida.stream": HlsCppEmitter._emit_stream,
    "affine.for": HlsCppEmitter._emit_loop,
    "affine.load": HlsCppEmitter._emit_load,
    "affine.store": HlsCppEmitter._emit_store,
    "arith.constant": HlsCppEmitter._emit_constant,
    **{name: HlsCppEmitter._emit_declaration for name in _DECLARATIONS},
    **{name: HlsCppEmitter._emit_expression for name in _EXPRESSIONS},
    **{name: HlsCppEmitter._emit_statement for name in _STATEMENTS},
}


def emit_hls_cpp(module: ModuleOp) -> str:
    """Emit the whole module as HLS C++ source text."""
    return HlsCppEmitter().emit_module(module)
