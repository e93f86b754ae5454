"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

The printer emits exactly one operation, block header or region delimiter
per line, which keeps the grammar line-oriented and the parser small.  The
parser accepts precisely that output — it is a *round-trip* parser for
serializing IR (stage-boundary snapshots), not a general MLIR reader:

* operations rebuild through :func:`repro.ir.core.create_operation`, so
  registered dialect op classes come back with their Python behaviour;
* every attribute form the printer renders is reconstructed with its
  original Python type: ints, floats, bools, strings, lists, dicts,
  affine maps, function types, array partitions and buffer layouts
  (``[...]`` sequences come back as lists — the printer renders lists and
  tuples identically, and every consumer iterates or unpacks);
* SSA names resolve through a flat symbol table (printed names are unique
  within one top-level op — the printer guarantees it), and parsed values
  carry no name hints; callers that need byte-identical re-printing restore
  the original hints with :func:`assign_name_hints` from a sidecar captured
  at print time (printed names are *derived* from hints plus global printer
  state, so they cannot be inverted locally).

Fidelity contract: ``print_op(parse_op(text)) == text`` for any text the
printer produced.  The snapshot cache additionally verifies this property
at save time and refuses to cache anything that fails it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
    AffineSymbolExpr,
)
from .core import Block, Operation, Value, create_operation
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
)

__all__ = ["IRParseError", "parse_op", "assign_name_hints", "collect_name_hints"]


class IRParseError(ValueError):
    """Raised when text does not match the printer's output grammar.

    Carries the offending position when it is known: ``line`` is 1-based
    into the *original* text handed to :func:`parse_op` (blank lines count),
    ``column`` is a 0-based character offset into that line's stripped form.
    Either may be ``None`` when the error is not anchored to a position
    (e.g. an empty input).
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


#: Characters allowed in SSA value names, op names and attribute keys.
_IDENT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.$-"
)

_BINARY_KINDS = {
    "+": "add",
    "*": "mul",
    "floordiv": "floordiv",
    "ceildiv": "ceildiv",
    "mod": "mod",
}


class _Cursor:
    """Character cursor over one line of printed IR."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, count: int = 1) -> str:
        return self.text[self.pos : self.pos + count]

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.startswith(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise IRParseError(
                f"expected {literal!r} at column {self.pos} of {self.text!r}",
                column=self.pos,
            )

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self.pos += 1
        if self.pos == start:
            raise IRParseError(
                f"expected an identifier at column {start} of {self.text!r}",
                column=start,
            )
        return self.text[start : self.pos]

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise IRParseError(
                f"expected an integer at column {start} of {self.text!r}",
                column=start,
            )
        return int(self.text[start : self.pos])


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _parse_shape_and_element(cursor: _Cursor) -> Tuple[Tuple[int, ...], Type]:
    """Parse ``4x4xf32``-style dims-plus-element of a shaped type."""
    shape: List[int] = []
    while True:
        start = cursor.pos
        if cursor.peek().isdigit():
            digits = ""
            while cursor.peek().isdigit():
                digits += cursor.peek()
                cursor.pos += 1
            if cursor.accept("x"):
                shape.append(int(digits))
                continue
            cursor.pos = start  # a bare number here is not a dimension
        break
    return tuple(shape), _parse_type(cursor)


def _parse_type(cursor: _Cursor) -> Type:
    if cursor.accept("tensor<"):
        shape, element = _parse_shape_and_element(cursor)
        cursor.expect(">")
        return TensorType(shape, element)
    if cursor.accept("memref<"):
        shape, element = _parse_shape_and_element(cursor)
        cursor.expect(", ")
        space = cursor.ident()
        cursor.expect(">")
        return MemRefType(shape, element, space)
    if cursor.accept("stream<"):
        element = _parse_type(cursor)
        cursor.expect(", ")
        depth = cursor.integer()
        cursor.expect(">")
        return StreamType(element, depth)
    if cursor.peek() == "(":
        return _parse_function_type(cursor)
    if cursor.accept("index"):
        return IndexType()
    if cursor.accept("none"):
        return NoneType()
    if cursor.accept("token"):
        return TokenType()
    if cursor.startswith("ui"):
        cursor.pos += 2
        return IntegerType(cursor.integer(), signed=False)
    if cursor.peek() == "i" and cursor.peek(2)[1:].isdigit():
        cursor.pos += 1
        return IntegerType(cursor.integer())
    if cursor.peek() == "f" and cursor.peek(2)[1:].isdigit():
        cursor.pos += 1
        return FloatType(cursor.integer())
    raise IRParseError(
        f"expected a type at column {cursor.pos} of {cursor.text!r}",
        column=cursor.pos,
    )


def _parse_function_type(cursor: _Cursor) -> FunctionType:
    cursor.expect("(")
    inputs: List[Type] = []
    if not cursor.accept(")"):
        while True:
            inputs.append(_parse_type(cursor))
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    cursor.expect(" -> (")
    results: List[Type] = []
    if not cursor.accept(")"):
        while True:
            results.append(_parse_type(cursor))
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    return FunctionType(inputs, results)


# ---------------------------------------------------------------------------
# Attribute values
# ---------------------------------------------------------------------------


def _parse_affine_expr(cursor: _Cursor) -> AffineExpr:
    if cursor.accept("("):
        lhs = _parse_affine_expr(cursor)
        cursor.expect(" ")
        op = ""
        while cursor.peek() not in (" ", ""):
            op += cursor.peek()
            cursor.pos += 1
        kind = _BINARY_KINDS.get(op)
        if kind is None:
            raise IRParseError(
                f"unknown affine operator {op!r} in {cursor.text!r}",
                column=cursor.pos - len(op),
            )
        cursor.expect(" ")
        rhs = _parse_affine_expr(cursor)
        cursor.expect(")")
        return AffineBinaryExpr(kind, lhs, rhs)
    if cursor.peek() == "d" and cursor.peek(2)[1:].isdigit():
        cursor.pos += 1
        return AffineDimExpr(cursor.integer())
    if cursor.peek() == "s" and cursor.peek(2)[1:].isdigit():
        cursor.pos += 1
        return AffineSymbolExpr(cursor.integer())
    return AffineConstantExpr(cursor.integer())


def _parse_affine_map(cursor: _Cursor) -> AffineMap:
    cursor.expect("(")
    num_dims = 0
    if not cursor.accept(")"):
        while True:
            cursor.expect(f"d{num_dims}")
            num_dims += 1
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    num_symbols = 0
    if cursor.accept("["):
        while True:
            cursor.expect(f"s{num_symbols}")
            num_symbols += 1
            if cursor.accept(", "):
                continue
            cursor.expect("]")
            break
    cursor.expect(" -> (")
    results: List[AffineExpr] = []
    if not cursor.accept(")"):
        while True:
            results.append(_parse_affine_expr(cursor))
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    return AffineMap(num_dims, num_symbols, results)


def _parse_number(cursor: _Cursor) -> Any:
    start = cursor.pos
    if cursor.peek() == "-":
        cursor.pos += 1
    while cursor.peek().isdigit():
        cursor.pos += 1
    is_float = False
    if cursor.peek() == ".":
        is_float = True
        cursor.pos += 1
        while cursor.peek().isdigit():
            cursor.pos += 1
    if cursor.peek() in ("e", "E") and cursor.peek(2)[1:] in "+-0123456789":
        is_float = True
        cursor.pos += 1
        if cursor.peek() in ("+", "-"):
            cursor.pos += 1
        while cursor.peek().isdigit():
            cursor.pos += 1
    text = cursor.text[start : cursor.pos]
    if not text or text == "-":
        raise IRParseError(
            f"expected a number at column {start} of {cursor.text!r}",
            column=start,
        )
    return float(text) if is_float else int(text)


def _parse_partition(cursor: _Cursor):
    from ..dialects.hls import ArrayPartition

    cursor.expect("partition<[")
    kinds: List[str] = []
    factors: List[int] = []
    while True:
        kinds.append(cursor.ident())
        cursor.expect(":")
        factors.append(cursor.integer())
        if cursor.accept(", "):
            continue
        cursor.expect("]>")
        break
    return ArrayPartition(kinds, factors)


def _parse_int_bracket_list(cursor: _Cursor) -> List[int]:
    cursor.expect("[")
    values: List[int] = []
    if not cursor.accept("]"):
        while True:
            values.append(cursor.integer())
            if cursor.accept(", "):
                continue
            cursor.expect("]")
            break
    return values


def _parse_layout(cursor: _Cursor):
    from ..dialects.dataflow import BufferLayout

    cursor.expect("layout<")
    tiles = _parse_int_bracket_list(cursor)
    cursor.expect(", ")
    vectors = _parse_int_bracket_list(cursor)
    cursor.expect(">")
    return BufferLayout(tiles, vectors)


def _parse_attr_value(cursor: _Cursor) -> Any:
    if cursor.accept('"'):
        end = cursor.text.find('"', cursor.pos)
        if end < 0:
            raise IRParseError(
                f"unterminated string in {cursor.text!r}",
                column=cursor.pos - 1,
            )
        value = cursor.text[cursor.pos : end]
        cursor.pos = end + 1
        return value
    if cursor.accept("["):
        values: List[Any] = []
        if not cursor.accept("]"):
            while True:
                values.append(_parse_attr_value(cursor))
                if cursor.accept(", "):
                    continue
                cursor.expect("]")
                break
        return values
    if cursor.accept("{"):
        mapping: Dict[str, Any] = {}
        if not cursor.accept("}"):
            while True:
                key = cursor.ident()
                cursor.expect(" = ")
                mapping[key] = _parse_attr_value(cursor)
                if cursor.accept(", "):
                    continue
                cursor.expect("}")
                break
        return mapping
    if cursor.startswith("true") and not _ident_continues(cursor, 4):
        cursor.pos += 4
        return True
    if cursor.startswith("false") and not _ident_continues(cursor, 5):
        cursor.pos += 5
        return False
    if cursor.startswith("partition<"):
        return _parse_partition(cursor)
    if cursor.startswith("layout<"):
        return _parse_layout(cursor)
    if cursor.peek() == "(":
        # Function types and affine maps share the "(...) -> (...)" shape;
        # try the type reading first (its operand grammar is disjoint from
        # affine expressions) and fall back to an affine map.
        saved = cursor.pos
        try:
            return _parse_function_type(cursor)
        except IRParseError:
            cursor.pos = saved
        return _parse_affine_map(cursor)
    return _parse_number(cursor)


def _ident_continues(cursor: _Cursor, offset: int) -> bool:
    nxt = cursor.text[cursor.pos + offset : cursor.pos + offset + 1]
    return bool(nxt) and nxt in _IDENT_CHARS


def _parse_attr_dict(cursor: _Cursor) -> Dict[str, Any]:
    cursor.expect("{")
    attrs: Dict[str, Any] = {}
    if cursor.accept("}"):
        return attrs
    while True:
        key = cursor.ident()
        cursor.expect(" = ")
        attrs[key] = _parse_attr_value(cursor)
        if cursor.accept(", "):
            continue
        cursor.expect("}")
        return attrs


# ---------------------------------------------------------------------------
# Operations, blocks and regions
# ---------------------------------------------------------------------------


def _parse_value_name(cursor: _Cursor) -> str:
    cursor.expect("%")
    return cursor.ident()


def _lookup(symtab: Dict[str, Value], name: str, line: str) -> Value:
    try:
        return symtab[name]
    except KeyError:
        raise IRParseError(
            f"use of undefined value %{name} in line {line!r}"
        ) from None


class _OpHeader:
    __slots__ = (
        "result_names",
        "op_name",
        "operand_names",
        "attributes",
        "result_types",
        "opens_region",
    )


def _parse_op_header(line: str) -> _OpHeader:
    header = _OpHeader()
    cursor = _Cursor(line)
    header.result_names = []
    if cursor.peek() == "%":
        while True:
            header.result_names.append(_parse_value_name(cursor))
            if cursor.accept(", "):
                continue
            break
        cursor.expect(" = ")
    header.op_name = cursor.ident()
    cursor.expect("(")
    header.operand_names = []
    if not cursor.accept(")"):
        while True:
            header.operand_names.append(_parse_value_name(cursor))
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    header.attributes = {}
    if cursor.startswith(" {") and cursor.text[cursor.pos:] != " {":
        cursor.expect(" ")
        header.attributes = _parse_attr_dict(cursor)
    header.result_types = []
    if cursor.accept(" : "):
        while True:
            header.result_types.append(_parse_type(cursor))
            if cursor.accept(", "):
                continue
            break
    header.opens_region = False
    if cursor.accept(" {"):
        header.opens_region = True
    if not cursor.eof():
        raise IRParseError(
            f"trailing text at column {cursor.pos} of line {line!r}",
            column=cursor.pos,
        )
    if len(header.result_types) != len(header.result_names):
        raise IRParseError(
            f"{len(header.result_names)} result name(s) but "
            f"{len(header.result_types)} result type(s) in line {line!r}"
        )
    return header


def _parse_block_header(
    line: str, symtab: Dict[str, Value]
) -> Block:
    cursor = _Cursor(line)
    cursor.expect("^bb")
    cursor.integer()
    cursor.expect("(")
    block = Block()
    if not cursor.accept(")"):
        while True:
            name = _parse_value_name(cursor)
            cursor.expect(": ")
            arg = block.add_argument(_parse_type(cursor))
            if name in symtab:
                raise IRParseError(f"duplicate value name %{name} in {line!r}")
            symtab[name] = arg
            if cursor.accept(", "):
                continue
            cursor.expect(")")
            break
    cursor.expect(":")
    if not cursor.eof():
        raise IRParseError(f"trailing text after block header {line!r}")
    return block


def _at_line(error: IRParseError, lineno: int) -> IRParseError:
    """Anchor ``error`` to ``lineno`` unless it already carries a line."""
    if error.line is None:
        error.line = lineno
    return error


def _parse_op(
    lines: List[Tuple[int, str]], index: int, symtab: Dict[str, Value]
) -> Tuple[Operation, int]:
    open_lineno, line = lines[index]
    try:
        header = _parse_op_header(line)
        operands = [
            _lookup(symtab, name, line) for name in header.operand_names
        ]
    except IRParseError as error:
        raise _at_line(error, open_lineno)
    op = create_operation(
        header.op_name,
        operands=operands,
        result_types=header.result_types,
        attributes=header.attributes,
        num_regions=0,
    )
    for name, result in zip(header.result_names, op.results):
        if name in symtab:
            raise IRParseError(
                f"duplicate value name %{name} in {line!r}", line=open_lineno
            )
        symtab[name] = result
    index += 1
    if not header.opens_region:
        return op, index
    region = op.add_region()
    block: Optional[Block] = None
    while True:
        if index >= len(lines):
            raise IRParseError(
                f"unterminated region of {header.op_name!r} "
                f"(opened at line {open_lineno})",
                line=open_lineno,
            )
        lineno, line = lines[index]
        if line == "}":
            index += 1
            break
        if line == "} {":
            if not region.blocks:
                region.append_block(Block())
            region = op.add_region()
            block = None
            index += 1
            continue
        if line.startswith("^bb"):
            try:
                block = _parse_block_header(line, symtab)
            except IRParseError as error:
                raise _at_line(error, lineno)
            region.append_block(block)
            index += 1
            continue
        if block is None:
            block = Block()
            region.append_block(block)
        child, index = _parse_op(lines, index, symtab)
        block.append(child)
    if not region.blocks:
        # The printer renders a region holding one empty block as bare
        # braces; rebuild that block so the round-trip stays byte-identical.
        region.append_block(Block())
    return op, index


def parse_op(text: str) -> Operation:
    """Parse printed IR back into an operation tree.

    ``text`` must be exactly what :func:`repro.ir.printer.print_op` renders
    for one top-level operation (any indentation is insignificant — the
    grammar is token-delimited).  Values come back without name hints; see
    :func:`assign_name_hints`.

    Failures raise :class:`IRParseError` anchored to the offending position:
    ``error.line`` is the 1-based line in ``text`` and ``error.column`` the
    0-based offset into that line's stripped form (when known).
    """
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]
    if not lines:
        raise IRParseError("empty IR text")
    symtab: Dict[str, Value] = {}
    op, index = _parse_op(lines, 0, symtab)
    if index != len(lines):
        lineno, line = lines[index]
        raise IRParseError(
            f"trailing content after top-level op (line {lineno}): "
            f"{line!r}",
            line=lineno,
        )
    return op


# ---------------------------------------------------------------------------
# Name-hint sidecars
# ---------------------------------------------------------------------------


def collect_name_hints(op: Operation) -> List[Optional[str]]:
    """Name hints of every value defined in ``op``, in traversal order.

    The order is :meth:`Operation.nested_values` (pre-order; results before
    block arguments), which depends only on structure — a parsed clone
    enumerates its values in the same order, so the list works as a
    positional sidecar.
    """
    return [value.name_hint for value in op.nested_values()]


def assign_name_hints(op: Operation, hints: List[Optional[str]]) -> Operation:
    """Restore a :func:`collect_name_hints` sidecar onto a parsed op.

    Printed names cannot be inverted into hints locally (collision suffixes
    depend on global printer state), so byte-identical re-printing after a
    parse requires the original hints to travel alongside the text.
    """
    values = list(op.nested_values())
    if len(values) != len(hints):
        raise IRParseError(
            f"name-hint sidecar has {len(hints)} entries but the op defines "
            f"{len(values)} values"
        )
    for value, hint in zip(values, hints):
        value.name_hint = hint
    return op
