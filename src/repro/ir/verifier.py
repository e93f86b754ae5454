"""Structural IR verifier.

Checks the invariants the rest of the compiler relies on:

* parent links are consistent (op.parent.block contains op, etc.);
* every operand is visible at its use: defined earlier in the same block,
  defined in an ancestor region, or a block argument of an enclosing block —
  unless the using op sits inside an *isolated-from-above* op (HIDA
  structural ``node``/``schedule``), in which case operands must be defined
  inside that isolated op or be its explicit arguments;
* use lists are consistent with operand lists;
* op-specific ``verify`` hooks pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import Block, BlockArgument, IRError, OpResult, Operation, Value

__all__ = ["verify", "VerificationError"]


class VerificationError(IRError):
    """Raised when IR verification fails."""


class _Scope:
    """What one :func:`verify` walk learns once and is asked many times.  Both
    tables are keyed by identity and only looked up, never iterated, so
    diagnostic order cannot depend on hash order."""

    def __init__(self) -> None:
        self._positions: Dict[Block, Dict[Operation, int]] = {}
        self._isolated: Dict[Operation, Optional[Operation]] = {}

    def position(self, block: Block, op: Operation) -> int:
        """Index of ``op`` in ``block``; the block is numbered on first ask."""
        positions = self._positions.get(block)
        if positions is None:
            positions = self._positions[block] = {o: i for i, o in enumerate(block._operations)}
        return positions[op]

    def enclosing_isolated_op(self, op: Operation) -> Optional[Operation]:
        """Innermost ancestor op (inclusive) that is isolated from above."""
        memo = self._isolated
        if op not in memo:
            if op.get_attr("_isolated_from_above", False) or getattr(
                op, "ISOLATED_FROM_ABOVE", False
            ):
                memo[op] = op
            else:
                parent = op.parent_op
                memo[op] = None if parent is None else self.enclosing_isolated_op(parent)
        return memo[op]


def _is_visible(value: Value, user: Operation, scope: _Scope) -> bool:
    """Whether ``value`` may be used as an operand of ``user``."""
    if isinstance(value, BlockArgument):
        defining_block: Optional[Block] = value.block
        # Visible if the user is nested within the block owning the argument.
        block = user.parent
        while block is not None:
            if block is defining_block:
                return True
            parent_op = block.parent_op
            block = parent_op.parent if parent_op else None
        return False
    if isinstance(value, OpResult):
        def_op = value.op
        def_block = def_op.parent
        if def_block is None:
            return False
        # Same block: definition must come before the user (or before the
        # user's enclosing op in that block).
        node: Optional[Operation] = user
        while node is not None:
            if node.parent is def_block:
                return scope.position(def_block, def_op) < scope.position(def_block, node)
            node = node.parent_op
        return False
    return False


def _verify_parent_links(op: Operation, errors: List[str]) -> None:
    for region in op.regions:
        if region.parent is not op:
            errors.append(f"{op.name}: region parent link is broken")
        for block in region.blocks:
            if block.parent is not region:
                errors.append(f"{op.name}: block parent link is broken")
            for child in block._operations:
                if child.parent is not block:
                    errors.append(
                        f"{op.name}: child op {child.name} has a stale parent link"
                    )


def _verify_uses(op: Operation, errors: List[str]) -> None:
    for index, operand in enumerate(op._operands):
        if (op, index) not in operand._uses:
            errors.append(
                f"{op.name}: operand #{index} use-list is missing this use"
            )
    for result in op.results:
        for user, idx in result._uses:
            if idx >= user.num_operands or user.operand(idx) is not result:
                errors.append(
                    f"{op.name}: stale use recorded on result #{result.index}"
                )


def _verify_operand_visibility(op: Operation, scope: _Scope, errors: List[str]) -> None:
    isolated = scope.enclosing_isolated_op(op)
    for index, operand in enumerate(op._operands):
        if isolated is not None and isolated is not op:
            # Operands must be defined inside the isolated op.
            def_op = operand.defining_op
            if def_op is not None:
                if not isolated.is_ancestor_of(def_op):
                    errors.append(
                        f"{op.name}: operand #{index} defined outside isolated "
                        f"op {isolated.name}"
                    )
                    continue
            elif isinstance(operand, BlockArgument):
                owner_op = operand.block.parent_op
                if owner_op is not None and not isolated.is_ancestor_of(owner_op):
                    errors.append(
                        f"{op.name}: operand #{index} is a block argument from "
                        f"outside isolated op {isolated.name}"
                    )
                    continue
        if not _is_visible(operand, op, scope):
            errors.append(
                f"{op.name}: operand #{index} ({operand!r}) is not visible at its use"
            )


def verify(top: Operation, raise_on_error: bool = True) -> List[str]:
    """Verify ``top`` and everything nested in it.

    Returns the list of diagnostics; raises :class:`VerificationError` when
    ``raise_on_error`` is set and any diagnostic was produced.
    """
    errors: List[str] = []
    scope = _Scope()
    for op in top.walk():
        _verify_parent_links(op, errors)
        _verify_uses(op, errors)
        if op is not top:
            _verify_operand_visibility(op, scope, errors)
        try:
            op.verify()
        except Exception as exc:  # op-specific verification failure
            errors.append(f"{op.name}: {exc}")
    if errors and raise_on_error:
        raise VerificationError("; ".join(errors))
    return errors
