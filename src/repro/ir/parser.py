"""Parser for the textual IR form produced by :mod:`repro.ir.printer`.

A *round-trip* parser for serialized IR (stage-boundary snapshots), not a
general MLIR reader: it accepts what the printer emits — one operation,
block header or region delimiter per line, indentation insignificant —
and nothing else.  The grammar, one production per line::

    text      ::= op                          (one top-level op, regions nested)
    op        ::= [values " = "] NAME "(" [values] ")" suffix  { line }  ["}"]
    line      ::= op | "^bb" INT "(" [arg {", " arg}] "):" | "} {" | "}"
    suffix    ::= [" " dict] [" : " type {", " type}] [" {"]
    values    ::= "%" NAME {", %" NAME}
    arg       ::= "%" NAME ": " type
    dict      ::= "{" [NAME " = " attr {", " NAME " = " attr}] "}"
    attr      ::= STRING | NUMBER | "true" | "false" | dict
                | "[" [attr {", " attr}] "]" | partition | layout | functype | map
    STRING    ::= '"' {any but '"' or "\\" | "\\" any} '"'   (printed with '"', "\\" escaped)
    NUMBER    ::= INT | digits "." [digits] [exponent] | "inf" | "-inf" | "nan"
    partition ::= "partition<[" NAME ":" INT {", " NAME ":" INT} "]>"
    layout    ::= "layout<[" [INT {", " INT}] "], [" [INT {", " INT}] "]>"
    type      ::= "index" | "none" | "token" | "i" N | "ui" N | "f" N | functype
                | "tensor<" {N "x"} type ">" | "memref<" {N "x"} type ", " NAME ">"
                | "stream<" type ", " INT ">"
    functype  ::= "(" [type {", " type}] ") -> (" [type {", " type}] ")"
    map       ::= "(" ["d0" {", d" i}] ")" ["[s0" {", s" i} "]"] " -> (" [expr {", " expr}] ")"
    expr      ::= "(" expr " " ("+" | "*" | "floordiv" | "ceildiv" | "mod") " " expr ")"
                | "d" N | "s" N | INT

Every production below the line level is a function ``(text, pos) ->
(value, end)`` that consumes one whole construct per compiled-regex match;
a mismatch says what was expected and where.  Operations rebuild through
:func:`repro.ir.core.create_operation`, so registered dialect op classes
come back with their Python behaviour; ``[...]`` comes back as a list (the
printer renders lists and tuples identically); SSA names resolve through a
flat symbol table (the printer keeps them unique within one top-level op)
and parsed values carry no name hints — restore those with
:func:`assign_name_hints` from a sidecar captured at print time.

Sharing rule.  Printed IR repeats: thousands of op headers carry a few
hundred distinct suffixes and a few dozen distinct types, mostly *across*
texts, so :func:`_intern` keeps one bounded process-level table from
``(production, exact text)`` to the parsed result.  Only results that are
immutable all the way down go through it — a block-argument type, and a
suffix whose attribute values are all scalars or the frozen, value-compared
leaves (types, affine maps, function types, partitions, layouts).  That is
sound because such objects cannot be changed through any op that holds them,
compare by value, and print from the object — so a wrong entry still fails
the snapshot cache's re-print compare every time it is served.  Attribute
dicts, list- and dict-valued attributes (a suffix carrying one is parsed
afresh per op), operations, blocks and values are never shared, and a
production that raises caches nothing.

Fidelity contract: ``print_op(parse_op(text)) == text`` for any text the
printer produced.  The snapshot cache additionally verifies this property
at save time and refuses to cache anything that fails it.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

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

T = TypeVar("T")


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


class _Mismatch(Exception):
    """A production did not match: what it wanted, at which offset of its text."""

    def __init__(self, what: str, column: int) -> None:
        super().__init__(what)
        self.what = what
        self.column = column

    def positioned(self, lineno: int, line: str) -> IRParseError:
        """The public error, once the line the offset counts into is known."""
        return IRParseError(
            f"{self.what} at column {self.column} of {line!r}",
            line=lineno,
            column=self.column,
        )


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

#: SSA value names, op names and attribute keys.
_NAME_RE = r"[A-Za-z0-9_.$-]+"
_NAME = re.compile(_NAME_RE)
_VALUES = re.compile(rf"%({_NAME_RE}(?:, %{_NAME_RE})*)")
_INT = re.compile(r"-?\d+")
_ARG = re.compile(rf"%({_NAME_RE})(: )?")
_ATTR = re.compile(
    r'"((?:[^"\\]|\\.)*)"'  # 1: string, its '"' and '\' escaped by a '\'
    rf"|(true|false)(?!{_NAME_RE})"  # 2: bool
    r"|(-?(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+|-?inf|nan)"  # 3: float
    r"|(-?\d+)"  # 4: int
    r"|(partition<|layout<|[\[{(])"  # 5: a construct with its own production
)
_TYPE = re.compile(
    r"(tensor|memref)<((?:\d+x)*)"  # 1, 2: shaped kind and dims
    r"|(stream<)"  # 3
    r"|(index|none|token)"  # 4
    r"|([if])(\d+)"  # 5, 6
    r"|(ui)"  # 7
)
_AFFINE_ATOM = re.compile(r"([ds])(\d+)|(-?\d+)")
_ESCAPED = re.compile(r"\\(.)")

_SCALAR_TYPES: Dict[str, Callable[[], Type]] = {
    "index": IndexType,
    "none": NoneType,
    "token": TokenType,
}
_BINARY_KINDS = {
    "+": "add",
    "*": "mul",
    "floordiv": "floordiv",
    "ceildiv": "ceildiv",
    "mod": "mod",
}


def _expect(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise _Mismatch(f"expected {literal!r}", pos)
    return pos + len(literal)


def _name(text: str, pos: int) -> Tuple[str, int]:
    match = _NAME.match(text, pos)
    if match is None:
        raise _Mismatch("expected an identifier", pos)
    return match.group(), match.end()


def _integer(text: str, pos: int) -> Tuple[int, int]:
    match = _INT.match(text, pos)
    if match is None:
        raise _Mismatch("expected an integer", pos)
    return int(match.group()), match.end()


def _no_value_name(text: str, pos: int) -> _Mismatch:
    if text.startswith("%", pos):
        return _Mismatch("expected an identifier", pos + 1)
    return _Mismatch("expected '%'", pos)


def _values(text: str, pos: int, close: str) -> Tuple[List[str], int]:
    """``%a, %b`` then ``close``: the names, and the offset after ``close``."""
    match = _VALUES.match(text, pos)
    if match is None:
        raise _no_value_name(text, pos)
    end = match.end()
    if not text.startswith(close, end):
        if text.startswith(", ", end):
            raise _no_value_name(text, end + 2)
        raise _Mismatch(f"expected {close!r}", end)
    return match.group(1).split(", %"), end + len(close)


def _sequence(
    text: str,
    pos: int,
    item: Callable[[str, int], Tuple[T, int]],
    close: str,
    nonempty: bool = False,
) -> Tuple[List[T], int]:
    """``item, item`` then ``close``: the items, and the offset after ``close``."""
    values: List[T] = []
    if not nonempty and text.startswith(close, pos):
        return values, pos + len(close)
    while True:
        value, pos = item(text, pos)
        values.append(value)
        if text.startswith(", ", pos):
            pos += 2
        else:
            return values, _expect(text, pos, close)


@functools.lru_cache(maxsize=4096)
def _intern(production: Callable[[str], T], text: str) -> T:
    """The one table of shared parse results; see the module docstring."""
    return production(text)


def _interned(production: Callable[[str], T], text: str, start: int, end: int) -> T:
    """``production`` over ``text[start:end]``, mismatches re-anchored to ``text``."""
    try:
        return _intern(production, text[start:end])
    except _Mismatch as mismatch:
        raise _Mismatch(mismatch.what, mismatch.column + start) from None


def _built(build: Callable[..., T], pos: int, *args: Any) -> T:
    """``build(*args)``; a value the leaf's constructor rejects fails at ``pos``."""
    try:
        return build(*args)
    except ValueError as error:
        raise _Mismatch(str(error), pos) from None


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _type(text: str, pos: int) -> Tuple[Type, int]:
    if text.startswith("(", pos):
        return _function_type(text, pos)
    match = _TYPE.match(text, pos)
    if match is None:
        raise _Mismatch("expected a type", pos)
    kind, end = match.lastindex, match.end()
    if kind == 2:
        shape = [int(dim) for dim in match.group(2).split("x")[:-1]]
        element, end = _type(text, end)
        if match.group(1) == "tensor":
            return _built(TensorType, pos, shape, element), _expect(text, end, ">")
        space, end = _name(text, _expect(text, end, ", "))
        return _built(MemRefType, pos, shape, element, space), _expect(text, end, ">")
    if kind == 3:
        element, end = _type(text, end)
        depth, end = _integer(text, _expect(text, end, ", "))
        return _built(StreamType, pos, element, depth), _expect(text, end, ">")
    if kind == 4:
        return _SCALAR_TYPES[match.group(4)](), end
    if kind == 6:
        build = IntegerType if match.group(5) == "i" else FloatType
        return _built(build, pos, int(match.group(6))), end
    width, end = _integer(text, end)
    return _built(IntegerType, pos, width, False), end


def _function_type(text: str, pos: int) -> Tuple[FunctionType, int]:
    inputs, pos = _sequence(text, _expect(text, pos, "("), _type, ")")
    results, pos = _sequence(text, _expect(text, pos, " -> ("), _type, ")")
    return FunctionType(inputs, results), pos


def _leading_type(text: str) -> Tuple[Type, int]:
    """The type ``text`` starts with and its length (a block argument's)."""
    return _type(text, 0)


# ---------------------------------------------------------------------------
# Attribute values
# ---------------------------------------------------------------------------


def _affine_expr(text: str, pos: int) -> Tuple[AffineExpr, int]:
    if text.startswith("(", pos):
        lhs, pos = _affine_expr(text, pos + 1)
        pos = _expect(text, pos, " ")
        operator = text[pos:].partition(" ")[0]
        kind = _BINARY_KINDS.get(operator)
        if kind is None:
            raise _Mismatch(f"unknown affine operator {operator!r}", pos)
        rhs, pos = _affine_expr(text, _expect(text, pos + len(operator), " "))
        return AffineBinaryExpr(kind, lhs, rhs), _expect(text, pos, ")")
    match = _AFFINE_ATOM.match(text, pos)
    if match is None:
        raise _Mismatch("expected an integer", pos)
    if match.lastindex == 3:
        return AffineConstantExpr(int(match.group(3))), match.end()
    if match.group(1) == "d":
        return AffineDimExpr(int(match.group(2))), match.end()
    return AffineSymbolExpr(int(match.group(2))), match.end()


def _numbered(prefix: str) -> Callable[[str, int], Tuple[None, int]]:
    """Items that must read ``<prefix>0``, ``<prefix>1``, ... in order."""
    count = itertools.count()
    return lambda text, pos: (None, _expect(text, pos, f"{prefix}{next(count)}"))


def _affine_map(text: str, pos: int) -> Tuple[AffineMap, int]:
    dims, pos = _sequence(text, _expect(text, pos, "("), _numbered("d"), ")")
    symbols: List[None] = []
    if text.startswith("[", pos):
        symbols, pos = _sequence(text, pos + 1, _numbered("s"), "]", nonempty=True)
    results, pos = _sequence(text, _expect(text, pos, " -> ("), _affine_expr, ")")
    return AffineMap(len(dims), len(symbols), results), pos


def _function_type_or_map(text: str, pos: int) -> Tuple[Any, int]:
    # Both read "(...) -> (...)"; their operand grammars are disjoint, so
    # try the type reading and report the map reading's mismatch.
    try:
        return _function_type(text, pos)
    except _Mismatch:
        return _affine_map(text, pos)


def _partition_dim(text: str, pos: int) -> Tuple[Tuple[str, int], int]:
    kind, pos = _name(text, pos)
    factor, pos = _integer(text, _expect(text, pos, ":"))
    return (kind, factor), pos


def _partition(text: str, pos: int) -> Tuple[Any, int]:
    from ..dialects.hls import ArrayPartition

    start = _expect(text, pos, "partition<[")
    dims, end = _sequence(text, start, _partition_dim, "]>", nonempty=True)
    kinds, factors = zip(*dims)
    return _built(ArrayPartition, pos, kinds, factors), end


def _layout(text: str, pos: int) -> Tuple[Any, int]:
    from ..dialects.dataflow import BufferLayout

    tiles, end = _sequence(text, _expect(text, pos + len("layout<"), "["), _integer, "]")
    end = _expect(text, _expect(text, end, ", "), "[")
    vectors, end = _sequence(text, end, _integer, "]")
    return _built(BufferLayout, pos, tiles, vectors), _expect(text, end, ">")


def _attr_list(text: str, pos: int) -> Tuple[List[Any], int]:
    return _sequence(text, pos + 1, _attr, "]")


def _dict_item(text: str, pos: int) -> Tuple[Tuple[str, Any], int]:
    key, pos = _name(text, pos)
    value, pos = _attr(text, _expect(text, pos, " = "))
    return (key, value), pos


def _attr_dict(text: str, pos: int) -> Tuple[Dict[str, Any], int]:
    items, end = _sequence(text, pos + 1, _dict_item, "}")
    return dict(items), end


_CONSTRUCTS: Dict[str, Callable[[str, int], Tuple[Any, int]]] = {
    "[": _attr_list,
    "{": _attr_dict,
    "(": _function_type_or_map,
    "partition<": _partition,
    "layout<": _layout,
}


def _attr(text: str, pos: int) -> Tuple[Any, int]:
    match = _ATTR.match(text, pos)
    if match is None:
        if text.startswith('"', pos):
            raise _Mismatch("unterminated string", pos)
        raise _Mismatch("expected a number", pos)
    kind = match.lastindex
    if kind == 1:
        value = match.group(1)
        if "\\" in value:
            value = _ESCAPED.sub(r"\1", value)
        return value, match.end()
    if kind == 2:
        return match.group(2) == "true", match.end()
    if kind == 3:
        return float(match.group(3)), match.end()
    if kind == 4:
        return int(match.group(4)), match.end()
    return _CONSTRUCTS[match.group(5)](text, pos)


# ---------------------------------------------------------------------------
# Operations, blocks and regions
# ---------------------------------------------------------------------------

_Suffix = Tuple[Dict[str, Any], Tuple[Type, ...], bool]


def _suffix(text: str) -> _Suffix:
    """What follows ``)``: attributes, result types, whether a region opens."""
    attributes: Dict[str, Any] = {}
    pos = 0
    if text.startswith(" {") and text != " {":
        attributes, pos = _attr_dict(text, 1)
    types: List[Type] = []
    if text.startswith(" : ", pos):
        # One or more types, closed by nothing: the line ends or a region opens.
        types, pos = _sequence(text, pos + 3, _type, "", nonempty=True)
    opens_region = text.startswith(" {", pos)
    if opens_region:
        pos += 2
    if pos != len(text):
        raise _Mismatch("trailing text", pos)
    return attributes, tuple(types), opens_region


def _shared_suffix(text: str) -> Optional[_Suffix]:
    """:func:`_suffix`, or None when it holds a list or dict (never shared)."""
    suffix = _suffix(text)
    if any(isinstance(value, (list, dict)) for value in suffix[0].values()):
        return None
    return suffix


def _block_argument(line: str, pos: int) -> Tuple[Tuple[str, Type], int]:
    match = _ARG.match(line, pos)
    if match is None:
        raise _no_value_name(line, pos)
    if match.group(2) is None:
        raise _Mismatch("expected ': '", match.end())
    # A type holds no "%", so it runs to the next argument or the closing "):".
    pos = match.end()
    stop = line.find(", %", pos)
    if stop < 0:
        stop = line.rfind("):", pos)
    if stop < 0:
        stop = len(line)
    parsed, length = _interned(_leading_type, line, pos, stop)
    return (match.group(1), parsed), pos + length


def _parse_block_header(line: str, lineno: int, symtab: Dict[str, Value]) -> Block:
    _, pos = _integer(line, len("^bb"))
    arguments, pos = _sequence(line, _expect(line, pos, "("), _block_argument, ")")
    if _expect(line, pos, ":") != len(line):
        raise IRParseError(f"trailing text after block header {line!r}", line=lineno)
    block = Block()
    for name, argument_type in arguments:
        if name in symtab:
            raise IRParseError(f"duplicate value name %{name} in {line!r}", line=lineno)
        symtab[name] = block.add_argument(argument_type)
    return block


def _parse_op_header(
    line: str, lineno: int, symtab: Dict[str, Value]
) -> Tuple[Operation, bool]:
    """One op line: the op, its results named in ``symtab``, and whether the
    line opens a region."""
    result_names: List[str] = []
    pos = 0
    if line.startswith("%"):
        result_names, pos = _values(line, 0, " = ")
    op_name, pos = _name(line, pos)
    pos = _expect(line, pos, "(")
    operand_names: List[str] = []
    if line.startswith(")", pos):
        pos += 1
    else:
        operand_names, pos = _values(line, pos, ")")
    shared = _interned(_shared_suffix, line, pos, len(line))
    attributes, result_types, opens_region = shared or _suffix(line[pos:])
    if len(result_types) != len(result_names):
        raise IRParseError(
            f"{len(result_names)} result name(s) but "
            f"{len(result_types)} result type(s) in line {line!r}",
            line=lineno,
        )
    try:
        operands = [symtab[name] for name in operand_names]
    except KeyError as error:
        raise IRParseError(
            f"use of undefined value %{error.args[0]} in line {line!r}", line=lineno
        ) from None
    # create_operation copies ``attributes``, so a shared suffix's dict is
    # never the op's own.
    op = create_operation(
        op_name,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
        num_regions=0,
    )
    for name, result in zip(result_names, op.results):
        if name in symtab:
            raise IRParseError(f"duplicate value name %{name} in {line!r}", line=lineno)
        symtab[name] = result
    return op, opens_region


def _parse_op(
    lines: List[Tuple[int, str]], index: int, symtab: Dict[str, Value]
) -> Tuple[Operation, int]:
    open_lineno, line = lines[index]
    try:
        op, opens_region = _parse_op_header(line, open_lineno, symtab)
    except _Mismatch as mismatch:
        raise mismatch.positioned(open_lineno, line) from None
    index += 1
    if not opens_region:
        return op, index
    region = op.add_region()
    block: Optional[Block] = None
    while True:
        if index >= len(lines):
            raise IRParseError(
                f"unterminated region of {op.name!r} "
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
                block = _parse_block_header(line, lineno, symtab)
            except _Mismatch as mismatch:
                raise mismatch.positioned(lineno, line) from None
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
        (number, line)
        for number, line in enumerate(map(str.strip, text.split("\n")), start=1)
        if line
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
