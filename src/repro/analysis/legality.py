"""Transform-legality verification on top of the dependence engine.

Loop and directive transforms consult these predicates *before* touching
the IR: an illegal request raises :class:`TransformLegalityError` (a
``ValueError``, matching the repo-wide idiom) carrying the offending
dependences instead of silently producing bogus IR for the estimator to
score.

All predicates are conservative in the safe direction: ``unknown`` or
unconstrained dependence distances make a transform illegal, never legal.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects.affine import AffineForOp, loop_of
from ..ir.core import Operation, Value
from .dependence import (
    Dependence,
    NestAccesses,
    linear_subscripts,
    loop_carried_dependences,
    nest_dependences,
)
from .recurrence import binding_recurrences, pipeline_rec_mii

__all__ = [
    "BankConflict",
    "LegalityResult",
    "TransformLegalityError",
    "legal_permutation",
    "legal_unroll",
    "legal_pipeline_ii",
    "partition_bank_conflicts",
]

#: Same-cycle accesses a BRAM bank can serve (true dual-port).
_BANK_PORTS = 2


class TransformLegalityError(ValueError):
    """A transform request that would violate a dependence (or conflict)."""

    def __init__(
        self,
        transform: str,
        reason: str,
        dependences: Sequence[Dependence] = (),
    ) -> None:
        super().__init__(f"illegal {transform}: {reason}")
        self.transform = transform
        self.reason = reason
        self.dependences = tuple(dependences)


@dataclasses.dataclass
class LegalityResult:
    """Outcome of a legality query; ``raise_if_illegal`` makes it a gate."""

    ok: bool
    transform: str
    reason: str = ""
    dependences: Tuple[Dependence, ...] = ()
    min_ii: int = 1

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_illegal(self) -> "LegalityResult":
        if not self.ok:
            raise TransformLegalityError(
                self.transform, self.reason, self.dependences
            )
        return self


# ---------------------------------------------------------------------------
# Loop permutation
# ---------------------------------------------------------------------------


def legal_permutation(
    band: Sequence[AffineForOp],
    permutation: Sequence[int],
    accesses: Optional[NestAccesses] = None,
) -> LegalityResult:
    """Can ``band`` be reordered so level ``j`` becomes old level ``permutation[j]``?

    Classic criterion: every dependence's permuted distance vector must stay
    lexicographically non-negative.  Free (``any``/``unknown``) entries are
    treated as possibly negative, so they only pass when a permuted-outer
    level already forces positivity.  ``accesses`` is the band's shared
    access collection (see :mod:`.dependence`), if the caller holds one.
    """
    name = "permutation"
    order = list(permutation)
    if sorted(order) != list(range(len(band))):
        return LegalityResult(
            False, name, f"{order} is not a permutation of 0..{len(band) - 1}"
        )
    if not band:
        return LegalityResult(True, name)
    offending: List[Dependence] = []
    inverse = {old: new for new, old in enumerate(order)}
    for dep in nest_dependences(band[0], include_loop_independent=False, accesses=accesses):
        if len(dep.loops) < len(band):
            # An access sits between band levels; reordering across it is
            # not representable in this vector space — reject conservatively.
            offending.append(dep)
            continue
        # Levels with an exact-zero distance never decide the lexicographic
        # order of a realized iteration pair, so the dependence survives any
        # permutation that keeps the *other* levels in their relative order
        # (e.g. moving a reduction block outward across parallel levels).
        positions = [
            inverse[j] if j < len(band) else j
            for j, element in enumerate(dep.distance)
            if not (element.kind == "exact" and element.value == 0)
        ]
        if all(a < b for a, b in zip(positions, positions[1:])):
            continue
        permuted = [dep.distance[order[j]] for j in range(len(band))]
        permuted += list(dep.distance[len(band) :])
        trips = [dep.loops[order[j]].trip_count for j in range(len(band))]
        trips += [loop.trip_count for loop in dep.loops[len(band) :]]
        if _possibly_lex_negative(permuted, trips):
            offending.append(dep)
    if offending:
        return LegalityResult(
            False,
            name,
            f"permutation {order} can reverse {len(offending)} "
            f"dependence(s), e.g. {offending[0].describe()}",
            tuple(offending),
        )
    return LegalityResult(True, name)


def _possibly_lex_negative(
    distance: Sequence, trips: Sequence[int]
) -> bool:
    for element, trip in zip(distance, trips):
        if element.kind == "exact":
            if element.value > 0:
                return False
            if element.value < 0:
                return True
            continue
        if element.kind == "atleast":
            if element.value >= 1:
                return False
            # >= 0: cannot make the vector negative at this level, but does
            # not force positivity either — keep scanning.
            continue
        return trip > 1  # any/unknown: possibly negative unless trivial
    return False  # all-zero prefix exhausted: loop-independent, fine


# ---------------------------------------------------------------------------
# Unrolling
# ---------------------------------------------------------------------------


def legal_unroll(loop: AffineForOp, factor: int) -> LegalityResult:
    """Can ``factor`` iterations of ``loop`` issue concurrently?

    Illegal when the loop carries a dependence at a distance smaller than
    the unroll factor: two iterations inside one unrolled group would then
    be ordered by memory, so issuing them in the same cycle reorders a
    read/write pair.  A carried dependence at exact distance >= factor is
    fine (it crosses group boundaries).
    """
    name = f"unroll by {factor}"
    if factor <= 1:
        return LegalityResult(True, name)
    offending = [
        dep
        for dep in loop_carried_dependences(loop)
        if dep.min_distance_at(0) < factor
    ]
    if offending:
        return LegalityResult(
            False,
            name,
            f"loop carries {offending[0].describe()} "
            f"(distance < {factor}); unrolled iterations would race",
            tuple(offending),
        )
    return LegalityResult(True, name)


# ---------------------------------------------------------------------------
# Pipelining
# ---------------------------------------------------------------------------


def legal_pipeline_ii(
    loop: AffineForOp, target_ii: int = 1, accesses: Optional[NestAccesses] = None
) -> LegalityResult:
    """Is ``target_ii`` achievable against the loop's recurrences?

    ``min_ii`` in the result is the rec-MII bound; callers either clamp
    (the hida parallelize pass) or raise (explicit directives with
    ``check=True``).
    """
    name = f"pipeline at II={target_ii}"
    min_ii = pipeline_rec_mii(loop, accesses)
    if target_ii >= min_ii:
        return LegalityResult(True, name, min_ii=min_ii)
    offending = tuple(binding_recurrences(loop, target_ii, accesses))
    return LegalityResult(
        False,
        name,
        f"recurrence bounds II to >= {min_ii} "
        f"({offending[0].describe() if offending else 'carried dependence'})",
        offending,
        min_ii=min_ii,
    )


# ---------------------------------------------------------------------------
# Array-partition bank conflicts
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BankConflict:
    """Same-cycle accesses exceeding one bank's ports on a partitioned dim."""

    buffer: Value
    dim: int
    factor: int
    bank: int
    hits: int
    ports: int = _BANK_PORTS

    def describe(self) -> str:
        return (
            f"dim {self.dim} (cyclic factor {self.factor}): {self.hits} "
            f"same-cycle accesses map to bank {self.bank} "
            f"but it has {self.ports} port(s)"
        )


def partition_bank_conflicts(
    buffer: Value,
    accesses: Sequence[Operation],
    factors: Optional[Sequence[int]] = None,
    ports: int = _BANK_PORTS,
) -> List[BankConflict]:
    """Banks hit more than ``ports`` times in one cycle by unrolled accesses.

    For every partitioned dimension, each access contributes one address
    offset per unrolled copy of the loops driving its subscript; cyclic
    partitioning maps offsets to ``offset mod factor``.  Accesses whose
    subscripts share the same variable part are counted against each other
    (their constant offsets are comparable); accesses with different
    variable parts are counted separately, which can miss conflicts but
    never invents ones between unrelated address streams.
    """
    if factors is None:
        from ..transforms.array_partition import partition_factors_of_value

        factors = partition_factors_of_value(buffer)
    conflicts: List[BankConflict] = []
    subscripts = [linear_subscripts(access) for access in accesses]
    for dim, factor in enumerate(factors):
        if factor <= 1:
            continue
        # Group accesses by the variable part of this dim's subscript.
        groups: Dict[Tuple, List[Tuple[int, List[int]]]] = {}
        for forms in subscripts:
            form = forms[dim] if dim < len(forms) else None
            if form is None:
                continue
            offsets = _unrolled_offsets(form)
            signature = tuple(
                sorted((id(v), c) for v, c in form.coeffs.items())
            )
            groups.setdefault(signature, []).append((form.const, offsets))
        for members in groups.values():
            hits: Dict[int, int] = {}
            for base, offsets in members:
                for offset in offsets:
                    bank = (base + offset) % factor
                    hits[bank] = hits.get(bank, 0) + 1
            worst = max(hits.items(), key=lambda kv: kv[1], default=(0, 0))
            if worst[1] > ports:
                conflicts.append(
                    BankConflict(buffer, dim, int(factor), worst[0], worst[1], ports)
                )
                break  # one finding per dimension is enough
    return conflicts


def _unrolled_offsets(form) -> List[int]:
    """Same-cycle address offsets of one subscript under loop unrolling.

    Every unrolled loop whose IV appears in the linear form multiplies the
    copies; offsets are the cartesian sums of ``k * coeff * step``.
    """
    per_loop: List[List[int]] = []
    for value, coeff in form.coeffs.items():
        loop = loop_of(value)
        if loop is None:
            continue
        factor = loop.unroll_factor
        if factor <= 1:
            continue
        stride = coeff * loop.step
        per_loop.append([k * stride for k in range(min(factor, 64))])
    if not per_loop:
        return [0]
    offsets = [sum(combo) for combo in itertools.product(*per_loop)]
    if len(offsets) > 4096:
        offsets = offsets[:4096]
    return offsets
