"""Textual printer for the IR.

Produces an MLIR-flavoured, human-readable rendering of operations, regions
and blocks.  The output round-trips through :mod:`repro.ir.parser`, which is
what makes printed IR usable as a serialization format (stage-boundary
snapshots in :mod:`repro.compiler.ircache`); it also remains the basis of
content fingerprints (:func:`fingerprint_op`, the QoR and analysis cache
keys), so the rendering must stay deterministic and unambiguous — every SSA
value prints under a unique name.

:meth:`IRPrinter.key` is the printed form's structural twin: the same walk,
value names and attribute filter, returned as a tuple of records with
nothing formatted or hashed.  Equal keys print equal text, so translation
validation (:mod:`repro.analysis.tv`) compares keys to prove that a stage
changed nothing.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .core import Block, Operation, Region, Value

__all__ = ["print_op", "fingerprint_op", "IRPrinter"]


def _format_attr(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        if '"' in value or "\\" in value:
            value = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_attr(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{k} = {_format_attr(v)}" for k, v in value.items())
        return "{" + inner + "}"
    return str(value)


#: Attribute classes keyed by class and value: two equal values of one of
#: these print alike (``1``, ``True`` and ``1.0`` are equal, but their
#: classes differ).  Floats are keyed by their printed form instead, since
#: ``0.0 == -0.0`` prints apart and ``nan != nan`` prints alike.
_KEYED_SCALARS = frozenset({int, bool, str})


class _KeyedByValue(Dict[type, bool]):
    """``class -> whether an attribute of that class is its own key``: a
    frozen dataclass (affine map, type, buffer layout, array partition)
    compares field by field and prints from its fields alone.  Filled on
    first sight of a class, so a key decides each attribute with one lookup."""

    def __missing__(self, cls: type) -> bool:
        params = cls.__dict__.get("__dataclass_params__")
        keyed = params is not None and params.frozen and params.eq
        self[cls] = keyed
        return keyed


_KEYED_BY_VALUE = _KeyedByValue()

_type_of = attrgetter("type")
_blocks_of = attrgetter("blocks")


def _attr_key(value: Any) -> Any:
    """A comparable stand-in for ``value``: equal stand-ins format equally.

    Lists and tuples (which print alike) and dicts are frozen recursively; a
    class neither scalar nor a frozen dataclass is keyed by its printed
    string, so a mutable object never equals its own mutated self.
    """
    cls = value.__class__
    if cls in _KEYED_SCALARS:
        return (cls, value)
    if cls is float:
        return (cls, str(value))
    if cls is list or cls is tuple:
        return (list, tuple(map(_attr_key, value)))
    if cls is dict:
        return (dict, tuple([(str(k), _attr_key(v)) for k, v in value.items()]))
    if _KEYED_BY_VALUE[cls]:
        return value
    return (cls, _format_attr(value))


class IRPrinter:
    """Stateful printer assigning stable SSA names within a top-level op."""

    def __init__(
        self, indent_width: int = 2, skip_attrs: FrozenSet[str] = frozenset()
    ) -> None:
        #: Attribute names left out of the rendering (besides ``_private``
        #: ones), e.g. the directives a semantic fingerprint ignores.
        self._skip_attrs = skip_attrs
        self._names: Dict[int, str] = {}
        self._used: Set[str] = set()
        self._counter = 0
        self._indent_width = indent_width

    # ------------------------------------------------------------ value names
    def name_of(self, value: Value) -> str:
        key = id(value)
        if key not in self._names:
            if value.name_hint:
                name = value.name_hint
                while name in self._used:
                    name = f"{value.name_hint}_{self._counter}"
                    self._counter += 1
            else:
                name = f"{self._counter}"
                self._counter += 1
                while name in self._used:
                    name = f"{self._counter}"
                    self._counter += 1
            self._names[key] = name
            self._used.add(name)
        return f"%{self._names[key]}"

    # -------------------------------------------------------------- printing
    def print_op(self, op: Operation, indent: int = 0) -> str:
        lines: List[str] = []
        self._print_op(op, indent, lines)
        return "\n".join(lines)

    def _print_op(self, op: Operation, indent: int, lines: List[str]) -> None:
        pad = " " * (indent * self._indent_width)
        results = ", ".join(self.name_of(r) for r in op.results)
        prefix = f"{results} = " if results else ""
        operands = ", ".join(self.name_of(v) for v in op.operands)
        skip = self._skip_attrs
        attr_items = {
            k: v
            for k, v in op.attributes.items()
            if not k.startswith("_") and k not in skip
        }
        attrs = ""
        if attr_items:
            attrs = " {" + ", ".join(
                f"{k} = {_format_attr(v)}" for k, v in sorted(attr_items.items())
            ) + "}"
        types = ""
        if op.results:
            types = " : " + ", ".join(str(r.type) for r in op.results)
        header = f"{pad}{prefix}{op.name}({operands}){attrs}{types}"
        if not op.regions or all(r.empty for r in op.regions):
            lines.append(header)
            return
        lines.append(header + " {")
        for index, region in enumerate(op.regions):
            if index:
                # Multi-region ops delimit their regions explicitly so the
                # textual form stays parseable (region boundaries would
                # otherwise be ambiguous).
                lines.append(pad + "} {")
            self._print_region(region, indent + 1, lines)
        lines.append(pad + "}")

    def _print_region(self, region: Region, indent: int, lines: List[str]) -> None:
        pad = " " * (indent * self._indent_width)
        multi_block = len(region.blocks) > 1
        for i, block in enumerate(region.blocks):
            if multi_block or block.arguments:
                args = ", ".join(
                    f"{self.name_of(a)}: {a.type}" for a in block.arguments
                )
                lines.append(f"{pad}^bb{i}({args}):")
            for op in block.operations:
                self._print_op(op, indent + (1 if multi_block else 0), lines)

    # ------------------------------------------------------------------- keys
    def key(self, op: Operation) -> Tuple[Any, ...]:
        """Structural key of ``op``: two ops with equal keys print equal text.

        Walks the ops in :meth:`print_op`'s order, names values with the same
        :meth:`name_of` and filters attributes the same way, but formats and
        hashes nothing.  In pre-order, one record per op — its name, result
        and operand names, sorted ``(attribute, key)`` pairs, result types and
        the block count of each region — and one per block — its arguments'
        names and types and its op count — so the records decode to one tree.
        Operand names are looked up without the ``%`` :meth:`name_of` adds.
        """
        name_of = self.name_of
        name_by_id = self._names.__getitem__
        skip = self._skip_attrs
        records: List[Any] = []
        append = records.append
        # As in :meth:`Operation.clone`, no recursion: the ops of the current
        # block still to key, the owner's blocks still to enter, and ``outer``
        # chaining the suspended frames.
        ops: Iterator[Operation] = iter((op,))
        blocks: Iterator[Block] = iter(())
        outer: Optional[tuple] = None
        while True:
            for op in ops:
                results = op.results
                result_names = tuple(map(name_of, results))
                operands = op._operands
                try:
                    operand_names = tuple(map(name_by_id, map(id, operands)))
                except KeyError:  # used before its definition is printed
                    for value in operands:
                        name_of(value)
                    operand_names = tuple(map(name_by_id, map(id, operands)))
                pairs = []
                for name, value in op.attributes.items():
                    if name.startswith("_") or name in skip:
                        continue
                    cls = value.__class__
                    if cls in _KEYED_SCALARS:
                        pairs.append((name, (cls, value)))
                    else:
                        pairs.append((name, _attr_key(value)))
                pairs.sort()
                regions = op.regions
                append(
                    (
                        op.name,
                        result_names,
                        operand_names,
                        tuple(pairs),
                        tuple(map(_type_of, results)),
                        tuple(map(len, map(_blocks_of, regions))),
                    )
                )
                if regions:
                    outer = (ops, blocks, outer)
                    blocks = iter([block for region in regions for block in region.blocks])
                    break
            # Either a descent just began or a block ran out: enter the
            # owner's next block, or go back up to the owner's block.
            for block in blocks:
                arguments = block.arguments
                append(
                    (
                        tuple(map(name_of, arguments)),
                        tuple(map(_type_of, arguments)),
                        len(block._operations),
                    )
                )
                ops = iter(block._operations)
                break
            else:
                if outer is None:
                    return tuple(records)
                ops, blocks, outer = outer


def print_op(op: Operation) -> str:
    """Render an operation (and everything nested in it) as text."""
    return IRPrinter().print_op(op)


def fingerprint_op(op: Operation) -> str:
    """Deterministic content hash of an operation and everything nested in it.

    The fingerprint is the SHA-256 of the printed form rendered by a fresh
    :class:`IRPrinter`: SSA names are assigned in traversal order and
    attributes print in sorted key order, so two structurally identical ops
    fingerprint identically regardless of object identity, while any rewrite
    that changes operations, attributes or structure changes the hash.  Used
    as the stable cache key for analyses and QoR results.
    """
    text = IRPrinter().print_op(op)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
