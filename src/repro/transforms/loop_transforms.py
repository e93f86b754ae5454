"""Loop-level transformations: unrolling, pipelining, permutation.

These play the role of the ScaleHLS loop/directive transforms that HIDA
reuses.  Unrolling and pipelining are expressed primarily as directives
(attributes consumed by the QoR estimator and the HLS C++ emitter); literal
unrolling is available for small factors and is exercised by the tests.

Every transform can be gated on the dependence engine: pass ``check=True``
(or call :func:`permute_band`, which always checks) and an illegal request
raises :class:`repro.analysis.legality.TransformLegalityError` instead of
producing IR whose directives no schedule could honour.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    get_perfectly_nested_band,
)
from ..dialects.affine_map import AffineMap, dim
from ..ir.builder import Builder
from ..ir.core import Operation, Value

__all__ = [
    "annotate_unroll",
    "innermost_loops_of",
    "loop_bands_of",
    "permute_band",
    "pipeline_innermost_loops",
    "pipeline_loop",
    "unroll_loop",
]


def loop_bands_of(op: Operation) -> List[List[AffineForOp]]:
    """Top-level loop bands directly inside ``op``'s regions (not nested ones)."""
    bands: List[List[AffineForOp]] = []
    for region in op.regions:
        for block in region.blocks:
            for child in block.operations:
                if isinstance(child, AffineForOp):
                    bands.append(get_perfectly_nested_band(child))
    return bands


def innermost_loops_of(op: Operation) -> List[AffineForOp]:
    """All innermost affine loops nested in ``op``."""
    result = []
    for loop in op.walk():
        if isinstance(loop, AffineForOp):
            has_inner = any(
                isinstance(child, AffineForOp) for child in loop.body.operations
            )
            if not has_inner:
                result.append(loop)
    return result


def annotate_unroll(loop: AffineForOp, factor: int, check: bool = False) -> None:
    """Record an unroll directive on ``loop`` (clamped to its trip count).

    With ``check=True`` the request is verified against the dependence
    engine first and an illegal factor raises ``TransformLegalityError``.
    """
    factor = max(1, min(int(factor), max(loop.trip_count, 1)))
    if check and factor > 1:
        from ..analysis.legality import legal_unroll

        legal_unroll(loop, factor).raise_if_illegal()
    loop.set_unroll_factor(factor)


def unroll_loop(
    loop: AffineForOp, factor: int, literal: bool = False, check: bool = False
) -> AffineForOp:
    """Unroll ``loop`` by ``factor``.

    With ``literal=False`` (default) only the directive attribute is set,
    matching how downstream HLS tools consume unroll pragmas.  With
    ``literal=True`` the loop body is physically replicated ``factor`` times
    and the loop step is scaled, which is used in tests and small kernels.
    When the factor does not divide the trip count, the trailing iterations
    the widened step cannot cover are split into an epilogue loop after the
    unrolled one (found by the translation-validation fuzzer: without the
    epilogue the last group runs past the upper bound).
    ``check=True`` verifies the factor against carried dependences first.
    """
    annotate_unroll(loop, factor, check=check)
    if not literal:
        return loop
    factor = loop.unroll_factor
    if factor <= 1:
        return loop
    body = loop.body
    original_ops = body.operations
    iv = loop.induction_variable
    remainder = loop.trip_count % factor
    if remainder:
        split = loop.lower_bound + (loop.trip_count - remainder) * loop.step
        epilogue = AffineForOp.create(
            split, loop.upper_bound, loop.step, name_hint=iv.name_hint
        )
        tail_builder = Builder.at_end(epilogue.body)
        tail_map: Dict[Value, Value] = {iv: epilogue.induction_variable}
        for op in original_ops:
            tail_builder.insert(op.clone(tail_map))
        parent = loop.parent_block
        assert parent is not None
        parent.insert(parent.operations.index(loop) + 1, epilogue)
        loop.set_bounds(loop.lower_bound, split, loop.step)
    for copy_index in range(1, factor):
        builder = Builder.at_end(body)
        # shifted_iv = iv + copy_index * step
        apply_op = builder.insert(
            AffineApplyOp.create(
                AffineMap(1, [dim(0) + copy_index * loop.step]), [iv]
            )
        )
        value_map: Dict[Value, Value] = {iv: apply_op.result()}
        for op in original_ops:
            builder.insert(op.clone(value_map))
    loop.set_bounds(loop.lower_bound, loop.upper_bound, loop.step * factor)
    loop.set_unroll_factor(1)
    return loop


def pipeline_loop(loop: AffineForOp, target_ii: int = 1, check: bool = False) -> None:
    """Apply the loop-pipeline directive to ``loop``.

    With ``check=True`` a ``target_ii`` below the loop's recurrence MII
    raises ``TransformLegalityError`` (the hida parallelize pass instead
    *clamps* the II up to the bound).
    """
    if check:
        from ..analysis.legality import legal_pipeline_ii

        legal_pipeline_ii(loop, target_ii).raise_if_illegal()
    loop.set_pipeline(True, target_ii)


def pipeline_innermost_loops(op: Operation, target_ii: int = 1) -> int:
    """Pipeline every innermost loop nested in ``op``; returns the count."""
    loops = innermost_loops_of(op)
    for loop in loops:
        pipeline_loop(loop, target_ii)
    return len(loops)


def permute_band(
    band: Sequence[AffineForOp], permutation: Sequence[int], check: bool = True
) -> List[AffineForOp]:
    """Reorder a perfect band so new level ``j`` is old level ``permutation[j]``.

    The loops stay in place structurally; their bounds, steps, directive
    attributes and induction-variable uses are exchanged.  Returns the band
    in its new level order, i.e. ``band`` itself — the outermost op is
    still the outermost op.

    ``check=True`` (default) verifies legality first: a permutation that
    could reverse a dependence raises ``TransformLegalityError``.
    """
    loops = list(band)
    order = [int(i) for i in permutation]
    if sorted(order) != list(range(len(loops))):
        raise ValueError(
            f"{order} is not a permutation of 0..{len(loops) - 1}"
        )
    if check:
        from ..analysis.legality import legal_permutation

        legal_permutation(loops, order).raise_if_illegal()
    if order == list(range(len(loops))):
        return loops

    bounds = [(l.lower_bound, l.upper_bound, l.step) for l in loops]
    attrs = [dict(l.attributes) for l in loops]
    hints = [l.induction_variable.name_hint for l in loops]
    # Every IV's uses as they stand, so each use moves once and none is
    # moved twice by a cycle of swaps (IVs are block arguments and stay
    # physically in place).
    uses = [loop.induction_variable.uses for loop in loops]
    # Old level p moves to new level order.index(p): its iteration values
    # are now produced by the loop at that new position.
    for new_level, old_level in enumerate(order):
        loop = loops[new_level]
        lb, ub, step = bounds[old_level]
        loop.set_bounds(lb, ub, step)
        loop.attributes.clear()
        loop.attributes.update(attrs[old_level])
        iv = loop.induction_variable
        iv.name_hint = hints[old_level]
        for user, index in uses[old_level]:
            user.set_operand(index, iv)
    return loops
