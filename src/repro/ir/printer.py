"""Textual printer for the IR.

Produces an MLIR-flavoured, human-readable rendering of operations, regions
and blocks.  The output round-trips through :mod:`repro.ir.parser`, which is
what makes printed IR usable as a serialization format (stage-boundary
snapshots in :mod:`repro.compiler.ircache`); it also remains the basis of
content fingerprints, so the rendering must stay deterministic and
unambiguous — every SSA value prints under a unique name.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, FrozenSet, List, Set

from .core import Operation, Region, Value

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
