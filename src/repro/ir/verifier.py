"""Structural IR verifier.

Checks the invariants the rest of the compiler relies on:

* parent links are consistent (op.parent.block contains op, etc.) and a
  block lists each op once;
* every operand is visible at its use: defined earlier in the same block,
  defined in an ancestor region, or a block argument of an enclosing block —
  unless the using op sits inside an *isolated-from-above* op (HIDA
  structural ``node``/``schedule``), in which case operands must be defined
  inside that isolated op or be its explicit arguments;
* use lists are consistent with operand lists;
* op-specific ``verify`` hooks pass.

:func:`verify` is one recursive post-order walk that carries its scope: a
table from each value visible at the current op to the number of isolated
ops around the block that defines it.  Entering a block adds its arguments,
each child's results are added once the child is checked, and leaving the
block removes them.  An operand whose user's parent links are consistent up
to a parentless ``top`` is then checked by one lookup and one depth
comparison.  Everything else — a miss, an op under a stale link, a ``top``
that has a parent — is classified exactly, by :func:`_operand_issue`
climbing the parent links as the rules above are stated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import BlockArgument, IRError, OpResult, Operation, Value

__all__ = ["verify", "VerificationError"]


class VerificationError(IRError):
    """Raised when IR verification fails."""


def _operand_issue(op: Operation, index: int, operand: Value) -> Optional[str]:
    """The diagnostic for operand #``index`` of ``op`` (None if it is fine),
    decided by climbing parent links from ``op`` and from the definition."""
    isolated: Optional[Operation] = op
    while isolated is not None and not isolated.ISOLATED_FROM_ABOVE:
        isolated = isolated.parent_op
    if isolated is not None and isolated is not op:
        # Operands must be defined inside the isolated op.
        if isinstance(operand, OpResult):
            if not isolated.is_ancestor_of(operand.op):
                return f"{op.name}: operand #{index} defined outside isolated op {isolated.name}"
        elif isinstance(operand, BlockArgument):
            owner = operand.block.parent_op
            if owner is not None and not isolated.is_ancestor_of(owner):
                return (
                    f"{op.name}: operand #{index} is a block argument from "
                    f"outside isolated op {isolated.name}"
                )
    if isinstance(operand, BlockArgument):
        # Visible if the user is nested within the block owning the argument.
        block = op.parent
        while block is not None:
            if block is operand.block:
                return None
            owner = block.parent_op
            block = owner.parent if owner else None
    elif isinstance(operand, OpResult):
        # In the block of the definition, the definition must come before the
        # user or before the user's enclosing op.
        def_block = operand.op.parent
        node: Optional[Operation] = op
        while def_block is not None and node is not None:
            if node.parent is def_block:
                ops = def_block._operations
                if operand.op in ops and ops.index(operand.op) < ops.index(node):
                    return None
                break
            node = node.parent_op
    return f"{op.name}: operand #{index} ({operand!r}) is not visible at its use"


def verify(top: Operation, raise_on_error: bool = True) -> List[str]:
    """Verify ``top`` and everything nested in it.

    Returns the list of diagnostics; raises :class:`VerificationError` when
    ``raise_on_error`` is set and any diagnostic was produced.  Per op, in
    post-order: parent links, use lists, operand visibility, ``op.verify()``.
    """
    errors: List[str] = []
    visible: Dict[Value, int] = {}

    def check(op: Operation, depth: int, linked: bool) -> None:
        # ``depth`` isolated ops enclose ``op``; ``linked``: the parent links
        # from ``op`` up to a parentless ``top`` are consistent.
        links: List[str] = []
        inner = depth + 1 if op.ISOLATED_FROM_ABOVE else depth
        for region in op.regions:
            if region.parent is not op:
                links.append(f"{op.name}: region parent link is broken")
            for block in region.blocks:
                if block.parent is not region:
                    links.append(f"{op.name}: block parent link is broken")
                block_linked = linked and block.parent is region and region.parent is op
                arguments = block.arguments
                for argument in arguments:
                    if argument.block is block:
                        visible[argument] = inner
                children = block._operations
                # A block that lists an op twice is reported; the op is
                # checked at its first listing only.
                listed = set() if len(set(children)) != len(children) else None
                for child in children:
                    if listed is not None:
                        if child in listed:
                            links.append(f"{op.name}: child op {child.name} is listed twice")
                            continue
                        listed.add(child)
                    if child.parent is block:
                        check(child, inner, block_linked)
                        for result in child.results:
                            visible[result] = inner
                    else:
                        links.append(f"{op.name}: child op {child.name} has a stale parent link")
                        check(child, inner, False)
                # A value listed twice may leave early: a later lookup misses
                # and is classified exactly, never passed wrongly.
                for argument in arguments:
                    if argument in visible:
                        del visible[argument]
                for child in children:
                    for result in child.results:
                        if result in visible:
                            del visible[result]
        if links:
            errors.extend(links)

        operands = op._operands
        floor = 0 if op.ISOLATED_FROM_ABOVE else depth
        misses: List[int] = []
        index = 0
        for operand in operands:
            if (op, index) not in operand._uses:
                errors.append(f"{op.name}: operand #{index} use-list is missing this use")
            if not (linked and operand in visible and visible[operand] >= floor):
                misses.append(index)
            index += 1
        for result in op.results:
            for user, idx in result._uses:
                if idx >= len(user._operands) or user._operands[idx] is not result:
                    errors.append(f"{op.name}: stale use recorded on result #{result.index}")
        if op is not top:
            for index in misses:
                issue = _operand_issue(op, index, operands[index])
                if issue is not None:
                    errors.append(issue)
        try:
            op.verify()
        except Exception as exc:  # op-specific verification failure
            errors.append(f"{op.name}: {exc}")

    check(top, 0, top.parent is None)
    if errors and raise_on_error:
        raise VerificationError("; ".join(errors))
    return errors
