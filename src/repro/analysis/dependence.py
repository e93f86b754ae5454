"""Distance/direction-vector dependence analysis over affine loop nests.

This is the polyhedral-lite foundation the transform-legality layer
(:mod:`repro.analysis.legality`), the recurrence-MII bound
(:mod:`repro.analysis.recurrence`) and the loop lint rules build on.  It
classifies RAW/WAR/WAW dependences between :class:`AffineLoadOp` /
:class:`AffineStoreOp` pairs on the same buffer and solves, per common
enclosing loop, for the iteration *distance* (sink iteration minus source
iteration) using a GCD test plus a Banerjee-style bounds test over the
statically known trip counts — no external solver.

Precision model
---------------
Subscripts are linearized over induction variables (through
``affine.apply`` chains, so tiled ``d0 + d1`` indices work); anything
non-linear (``floordiv``/``mod``, symbols, values computed inside the
nest) degrades *conservatively*: the analysis may report a dependence
that does not exist, but never misses one.  Each distance entry is one of

* ``exact`` — the distance at that level is a known integer;
* ``atleast`` — lower-bounded (from the lexicographic ordering of source
  before sink), e.g. the carried level of a reduction;
* ``any`` — unconstrained by the subscripts;
* ``unknown`` — the subscripts could not be analyzed at this level.

``exact``/``atleast`` entries are sound bounds; ``any``/``unknown`` must
be treated as "every distance possible".

All arithmetic is integral: affine constants, loop bounds and steps are
``int`` by construction, so linear forms and the GCD / bounds tests run on
``int``.  A non-integral constant, should one ever appear, makes the
subscript not analyzable (``None``), like a non-linear expression.

Sharing the walk
----------------
Walking a nest and linearizing its subscripts does not depend on which
loop a question is rooted at.  :class:`NestAccesses` does it once for a
band's outermost loop; every entry point here and in :mod:`.legality` /
:mod:`.recurrence` takes one as ``accesses`` and answers for any loop of
the nest by restricting to the accesses under it and trimming their loop
tuples — the same rooted solve as a fresh walk, not a projection of the
outer nest's vectors.  A collection describes one IR state: whoever
mutates the nest (``permute_band``) drops it.  Without ``accesses`` each
call walks for itself, so there is no cache to invalidate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
)
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
)
from ..ir.core import Block, Operation, Value

__all__ = [
    "DistanceElement",
    "Dependence",
    "NestAccesses",
    "linear_subscripts",
    "nest_dependences",
    "band_dependences",
    "loop_carried_dependences",
    "loop_carries_dependence",
]

_EXACT = "exact"
_ATLEAST = "atleast"
_ANY = "any"
_UNKNOWN = "unknown"

#: Cap on affine.apply chains followed while linearizing a subscript.
_MAX_APPLY_DEPTH = 8


@dataclasses.dataclass(frozen=True)
class DistanceElement:
    """Dependence distance at one loop level (sink minus source iteration)."""

    kind: str  # "exact" | "atleast" | "any" | "unknown"
    value: int = 0  # the exact distance, or the lower bound for "atleast"

    @property
    def can_be_zero(self) -> bool:
        if self.kind == _EXACT:
            return self.value == 0
        if self.kind == _ATLEAST:
            return self.value <= 0
        return True

    def can_be_positive(self, trip_count: int) -> bool:
        if self.kind == _EXACT:
            return self.value > 0
        if self.kind == _ATLEAST:
            return trip_count - 1 >= max(self.value, 1)
        return trip_count > 1

    @property
    def min_positive(self) -> int:
        """Smallest positive distance this entry allows (assuming one exists)."""
        if self.kind == _EXACT:
            return max(self.value, 1)
        if self.kind == _ATLEAST:
            return max(self.value, 1)
        return 1

    @property
    def direction(self) -> str:
        """Classic direction-vector character ("<", "=", ">", "<=", "*")."""
        if self.kind == _EXACT:
            return "<" if self.value > 0 else ("=" if self.value == 0 else ">")
        if self.kind == _ATLEAST:
            return "<" if self.value >= 1 else "<="
        return "*"


def _exact(value: int) -> DistanceElement:
    return DistanceElement(_EXACT, value)


@dataclasses.dataclass
class Dependence:
    """One memory dependence between two accesses of the same buffer.

    ``source`` executes (in some iteration pair) before ``sink``;
    ``distance[i]`` constrains sink minus source iteration of ``loops[i]``.
    """

    source: Operation
    sink: Operation
    buffer: Value
    kind: str  # "RAW" | "WAR" | "WAW"
    loops: Tuple[AffineForOp, ...]
    distance: Tuple[DistanceElement, ...]

    @property
    def direction(self) -> Tuple[str, ...]:
        return tuple(element.direction for element in self.distance)

    @property
    def is_loop_independent(self) -> bool:
        """Source and sink can touch the same address in the same iteration."""
        return all(element.can_be_zero for element in self.distance)

    def carried_at(self, level: int) -> bool:
        """Can this dependence be carried by ``loops[level]``?

        Carried at ``level`` means: equal iterations of every outer loop and
        a strictly positive distance at ``level`` are feasible.
        """
        if not 0 <= level < len(self.distance):
            return False
        if not all(self.distance[i].can_be_zero for i in range(level)):
            return False
        return self.distance[level].can_be_positive(self.loops[level].trip_count)

    def min_distance_at(self, level: int) -> int:
        """Smallest positive carried distance at ``level`` (1 when free)."""
        return self.distance[level].min_positive

    def describe(self) -> str:
        vector = ", ".join(
            str(e.value) if e.kind == _EXACT else
            (f">={e.value}" if e.kind == _ATLEAST else e.kind)
            for e in self.distance
        )
        return f"{self.kind} distance ({vector})"


# ---------------------------------------------------------------------------
# Subscript linearization
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _LinearIndex:
    """``const + sum(coeffs[v] * v)`` over SSA index values."""

    coeffs: Dict[Value, int]
    const: int

    def add(self, other: "_LinearIndex") -> "_LinearIndex":
        coeffs = dict(self.coeffs)
        for value, coeff in other.coeffs.items():
            coeffs[value] = coeffs.get(value, 0) + coeff
        return _LinearIndex(
            {v: c for v, c in coeffs.items() if c != 0}, self.const + other.const
        )

    def scale(self, factor: int) -> "_LinearIndex":
        return _LinearIndex(
            {v: c * factor for v, c in self.coeffs.items() if c * factor != 0},
            self.const * factor,
        )

    @property
    def constant_value(self) -> Optional[int]:
        return self.const if not self.coeffs else None


def _linearize_value(value: Value, depth: int = 0) -> _LinearIndex:
    """Express an index value as a linear form over "root" SSA values.

    ``affine.apply`` results are expanded through their maps (bounded
    depth); every other value — induction variables, block arguments,
    results of arbitrary computation — stays a variable of the form.
    """
    owner = value.owner
    if (
        depth < _MAX_APPLY_DEPTH
        and isinstance(owner, Operation)
        and isinstance(owner, AffineApplyOp)
    ):
        operands = list(owner.operands)
        operand_forms = [_linearize_value(v, depth + 1) for v in operands]
        expanded = _expr_to_linear(owner.map.results[0], operand_forms)
        if expanded is not None:
            return expanded
    return _LinearIndex({value: 1}, 0)


def _expr_to_linear(
    expr: AffineExpr, dim_forms: Sequence[_LinearIndex]
) -> Optional[_LinearIndex]:
    """Fold an affine expression over linear operand forms; None if non-linear."""
    if isinstance(expr, AffineConstantExpr):
        if not isinstance(expr.value, int):
            return None  # non-integral constant: not analyzable
        return _LinearIndex({}, expr.value)
    if isinstance(expr, AffineDimExpr):
        if expr.position >= len(dim_forms):
            return None
        return dim_forms[expr.position]
    if isinstance(expr, AffineBinaryExpr):
        lhs = _expr_to_linear(expr.lhs, dim_forms)
        rhs = _expr_to_linear(expr.rhs, dim_forms)
        if lhs is None or rhs is None:
            return None
        if expr.kind == "add":
            return lhs.add(rhs)
        if expr.kind == "mul":
            if rhs.constant_value is not None:
                return lhs.scale(rhs.constant_value)
            if lhs.constant_value is not None:
                return rhs.scale(lhs.constant_value)
            return None
        # floordiv / ceildiv / mod: fold only the fully constant case.
        lc, rc = lhs.constant_value, rhs.constant_value
        if lc is not None and rc is not None and rc != 0:
            if expr.kind == "floordiv":
                return _LinearIndex({}, lc // rc)
            if expr.kind == "ceildiv":
                return _LinearIndex({}, _ceil_div(lc, rc))
            if expr.kind == "mod":
                return _LinearIndex({}, lc % rc)
        return None
    return None  # symbols and anything else: not analyzable


def linear_subscripts(
    op: Union[AffineLoadOp, AffineStoreOp]
) -> List[Optional[_LinearIndex]]:
    """Per subscript of an affine load/store, its linear form, None if non-linear.

    Each is the access map's result expression folded over the linearized
    index operands, so both map-level arithmetic like ``d0 * 2 + 1`` and
    operand-level ``affine.apply`` chains land in one linear form.
    """
    operand_forms = [_linearize_value(index) for index in op.index_operands]
    return [_expr_to_linear(expr, operand_forms) for expr in op.access_map.results]


@dataclasses.dataclass
class _Access:
    op: Operation
    memref: Value
    is_store: bool
    subscripts: List[Optional[_LinearIndex]]
    loops: Tuple[AffineForOp, ...]  # enclosing loops within the nest root


class NestAccesses:
    """The affine accesses of one nest, walked and linearized once.

    Describes the IR as it was when built; see "Sharing the walk" in the
    module docstring for who may reuse it and when it must be rebuilt.
    """

    def __init__(self, root: Operation) -> None:
        self.root = root
        self.accesses: List[_Access] = []  # program order
        self._walk(root, ())

    def _walk(self, op: Operation, loops: Tuple[AffineForOp, ...]) -> None:
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            is_store = isinstance(op, AffineStoreOp)
            self.accesses.append(
                _Access(op, op.memref, is_store, linear_subscripts(op), loops)
            )
            return
        if isinstance(op, AffineForOp):
            loops += (op,)
        for region in op.regions:
            for block in region.blocks:
                for child in block.operations:
                    self._walk(child, loops)

    def under(self, root: Operation) -> List[_Access]:
        """Accesses nested under ``root``, their loop tuples starting at it."""
        if root is self.root:
            return self.accesses
        trimmed = [
            dataclasses.replace(access, loops=access.loops[depth:])
            for access in self.accesses
            for depth, loop in enumerate(access.loops)
            if loop is root
        ]
        if not trimmed and not (
            isinstance(root, AffineForOp) and self.root.is_ancestor_of(root)
        ):
            raise ValueError("root is not a loop of the nest these accesses cover")
        return trimmed


# ---------------------------------------------------------------------------
# Pairwise solving
# ---------------------------------------------------------------------------


def _defined_inside(value: Value, root: Operation) -> bool:
    owner = value.owner
    if isinstance(owner, Operation):
        return root.is_ancestor_of(owner)
    if isinstance(owner, Block):
        parent = owner.parent.parent if owner.parent is not None else None
        return parent is not None and root.is_ancestor_of(parent)
    return False


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _iter_range(loop: AffineForOp) -> int:
    """Number of iterations minus one (max |distance| the loop allows)."""
    return max(loop.trip_count - 1, 0)


def _solve_pair(
    src: _Access,
    dst: _Access,
    common: Sequence[AffineForOp],
    root: Operation,
    strict: bool,
) -> Optional[List[DistanceElement]]:
    """Distance vector of src -> dst over ``common``; None if independent.

    ``strict`` demands a lexicographically positive distance (src in a
    strictly earlier iteration); otherwise equal iterations also count
    (src precedes dst in program order).
    """
    n = len(common)
    level_of = {id(loop.induction_variable): i for i, loop in enumerate(common)}
    exact: List[Optional[int]] = [None] * n
    unknown = [False] * n
    pair_unknown = False

    rank = min(len(src.subscripts), len(dst.subscripts))
    for dim in range(rank):
        fa, fb = src.subscripts[dim], dst.subscripts[dim]
        if fa is None or fb is None:
            pair_unknown = True
            continue
        coeff_a: Dict[int, int] = {}
        coeff_b: Dict[int, int] = {}
        skip_dim = False
        invariant_mismatch = False
        for value in set(fa.coeffs) | set(fb.coeffs):
            ca = fa.coeffs.get(value, 0)
            cb = fb.coeffs.get(value, 0)
            level = level_of.get(id(value))
            if level is not None:
                if ca:
                    coeff_a[level] = ca
                if cb:
                    coeff_b[level] = cb
                continue
            if _defined_inside(value, root):
                # An index that varies per instance independently of the
                # common loops (inner loop IV, computed value): the dim
                # imposes no constraint we can use — assume it can match.
                skip_dim = True
                break
            if ca != cb:
                # Loop-invariant value with different weight on each side:
                # the offset between the two subscripts is unknown.
                invariant_mismatch = True
        if skip_dim:
            continue
        involved = sorted(set(coeff_a) | set(coeff_b))
        if invariant_mismatch:
            for level in involved:
                unknown[level] = True
            if not involved:
                pair_unknown = True
            continue
        const = fb.const - fa.const
        if not involved:
            if const != 0:
                return None  # distinct constant addresses: independent
            continue
        uniform = all(
            coeff_a.get(level, 0) == coeff_b.get(level, 0) for level in involved
        )
        if uniform:
            verdict = _solve_uniform_dim(
                involved, coeff_a, const, common, exact, unknown
            )
            if verdict is False:
                return None  # no aliasing iteration pair: independent
            continue
        # General case: GCD + bounds tests over iteration-number variables.
        # sum(a_l*s_l * t_src_l) - sum(b_l*s_l * t_dst_l) = C2
        terms: List[Tuple[int, int]] = []  # (coefficient, trip range)
        c2 = const
        for level in involved:
            step = common[level].step
            a = coeff_a.get(level, 0)
            b = coeff_b.get(level, 0)
            c2 -= (a - b) * common[level].lower_bound
            if a:
                terms.append((a * step, _iter_range(common[level])))
            if b:
                terms.append((-b * step, _iter_range(common[level])))
        g = 0
        for coefficient, _ in terms:
            g = _gcd(g, coefficient)
        if g and c2 % g != 0:
            return None  # GCD test: no integer solution
        low = sum(min(c * r, 0) for c, r in terms)
        high = sum(max(c * r, 0) for c, r in terms)
        if not low <= c2 <= high:
            return None  # bounds test: no solution inside the loop bounds
        for level in involved:
            if exact[level] is None:
                unknown[level] = True

    # Assemble raw per-level elements.
    elements: List[DistanceElement] = []
    for level in range(n):
        if exact[level] is not None:
            elements.append(_exact(exact[level]))
        elif unknown[level] or pair_unknown:
            elements.append(DistanceElement(_UNKNOWN))
        else:
            elements.append(DistanceElement(_ANY))

    # A loop the lowering explicitly declared ``parallel`` (e.g. the output
    # dimensions of a linalg op, whose delinearized subscripts can exceed
    # the linear model) carries no cross-iteration aliasing: resolve
    # conservative levels to zero.  Proven exact distances are kept — an
    # attribute never overrides a proof.
    for level, loop in enumerate(common):
        if (
            elements[level].kind != _EXACT
            and loop.has_attr("parallel")
            and loop.is_parallel
        ):
            elements[level] = _exact(0)

    return _apply_ordering(elements, common, strict)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _solve_uniform_dim(
    involved: Sequence[int],
    coeffs: Dict[int, int],
    const: int,
    common: Sequence[AffineForOp],
    exact: List[Optional[int]],
    unknown: List[bool],
) -> bool:
    """Solve one subscript dim whose coefficients match on both sides.

    With equal coefficients the aliasing equation collapses to a single
    distance variable per level: ``sum(g_l * d_l) = -const`` with
    ``|d_l| <= range_l``.  Per-level bounds are tightened to a fixpoint by
    interval propagation; a level pinned to one value becomes ``exact``,
    a level left with slack becomes ``unknown``.  Returns False when the
    system has no integer solution (the accesses are independent).
    """
    terms: List[Tuple[int, int, int]] = []  # (level, coefficient, trip range)
    for level in involved:
        g = coeffs.get(level, 0) * common[level].step
        if g != 0:
            terms.append((level, g, _iter_range(common[level])))
    if not terms:
        return const == 0
    target = -const
    g_all = 0
    for _, g, _ in terms:
        g_all = _gcd(g_all, g)
    if g_all and target % g_all != 0:
        return False  # GCD test: no integer solution
    bounds: Dict[int, Tuple[int, int]] = {}
    for level, _, r in terms:
        if exact[level] is not None:
            bounds[level] = (exact[level], exact[level])
        else:
            bounds[level] = (-r, r)
    changed = True
    rounds = 0
    while changed and rounds <= len(terms) + 2:
        changed = False
        rounds += 1
        for level, g, _ in terms:
            rest_low = rest_high = 0
            for other, g2, _ in terms:
                if other == level:
                    continue
                lo2, hi2 = bounds[other]
                rest_low += min(g2 * lo2, g2 * hi2)
                rest_high += max(g2 * lo2, g2 * hi2)
            low_num = target - rest_high
            high_num = target - rest_low
            if g > 0:
                lo_d, hi_d = _ceil_div(low_num, g), high_num // g
            else:
                lo_d, hi_d = _ceil_div(high_num, g), low_num // g
            cur_lo, cur_hi = bounds[level]
            new_lo, new_hi = max(cur_lo, lo_d), min(cur_hi, hi_d)
            if new_lo > new_hi:
                return False  # bounds test: no solution in range
            if (new_lo, new_hi) != (cur_lo, cur_hi):
                bounds[level] = (new_lo, new_hi)
                changed = True
    for level, _, _ in terms:
        lo, hi = bounds[level]
        if lo == hi:
            if exact[level] is not None and exact[level] != lo:
                return False  # two dims demand different distances
            exact[level] = lo
        elif exact[level] is None:
            unknown[level] = True
    return True


def _apply_ordering(
    elements: List[DistanceElement],
    common: Sequence[AffineForOp],
    strict: bool,
) -> Optional[List[DistanceElement]]:
    """Intersect with the lexicographic source-before-sink constraint.

    Returns refined elements, or None when no ordered iteration pair exists
    (the candidate dependence is infeasible).
    """
    trips = [loop.trip_count for loop in common]
    # Single-iteration loops force a zero distance.
    for i, element in enumerate(elements):
        if trips[i] <= 1:
            if element.kind == _EXACT and element.value != 0:
                return None
            if element.kind == _ATLEAST and element.value > 0:
                return None
            elements[i] = _exact(0)
        elif element.kind == _EXACT and abs(element.value) > trips[i] - 1:
            return None

    def suffix_can_be_lexpos(start: int) -> bool:
        for k in range(start, len(elements)):
            if elements[k].can_be_positive(trips[k]):
                return True
            if not elements[k].can_be_zero:
                return False
        return False

    def suffix_can_be_zero(start: int) -> bool:
        return all(e.can_be_zero for e in elements[start:])

    # Feasibility of a lex-positive (strict) or lex-nonnegative distance.
    feasible = not strict and suffix_can_be_zero(0)
    if not feasible:
        for j in range(len(elements)):
            if not all(elements[i].can_be_zero for i in range(j)):
                break
            if elements[j].can_be_positive(trips[j]):
                feasible = True
                break
    if not feasible and not elements:
        feasible = not strict  # scalar accesses: same-iteration ordering only
    if not feasible:
        return None

    # Refinement: after a prefix of exact zeros, the first free level cannot
    # be negative (that would make the whole vector lex-negative); it must
    # even be >= 1 when no deeper level can rescue lexicographic positivity.
    for j, element in enumerate(elements):
        if element.kind == _EXACT:
            if element.value != 0:
                break
            continue
        lower = 0
        if not (
            suffix_can_be_lexpos(j + 1)
            or (not strict and suffix_can_be_zero(j + 1))
        ):
            lower = 1
        if element.kind == _ATLEAST:
            lower = max(lower, element.value)
        elements[j] = DistanceElement(_ATLEAST, lower)
        break
    return elements


def _dependence_kind(source_is_store: bool, sink_is_store: bool) -> str:
    if source_is_store and sink_is_store:
        return "WAW"
    if source_is_store:
        return "RAW"
    return "WAR"


def _make_dependence(
    source: _Access,
    sink: _Access,
    common: Tuple[AffineForOp, ...],
    distance: List[DistanceElement],
) -> Dependence:
    return Dependence(
        source=source.op,
        sink=sink.op,
        buffer=source.memref,
        kind=_dependence_kind(source.is_store, sink.is_store),
        loops=common,
        distance=tuple(distance),
    )


def _common_prefix(
    a: Tuple[AffineForOp, ...], b: Tuple[AffineForOp, ...]
) -> Tuple[AffineForOp, ...]:
    out: List[AffineForOp] = []
    for la, lb in zip(a, b):
        if la is not lb:
            break
        out.append(la)
    return tuple(out)


def nest_dependences(
    root: Operation,
    include_loop_independent: bool = True,
    accesses: Optional[NestAccesses] = None,
) -> List[Dependence]:
    """All memory dependences between affine accesses nested under ``root``.

    Every pair of accesses to the same buffer with at least one store is
    solved in both directions over their common enclosing loops (within
    ``root``): program order for the forward direction, strictly earlier
    iterations for the backward one.  ``accesses`` is a collection of an
    enclosing nest to answer from instead of walking ``root`` again.
    """
    nest = accesses or NestAccesses(root)
    by_buffer: Dict[int, List[_Access]] = {}
    for access in nest.under(root):
        by_buffer.setdefault(id(access.memref), []).append(access)

    dependences: List[Dependence] = []

    def admit(dep: Dependence) -> None:
        if include_loop_independent or not dep.is_loop_independent or any(
            element.can_be_positive(loop.trip_count)
            for element, loop in zip(dep.distance, dep.loops)
        ):
            dependences.append(dep)

    for group in by_buffer.values():
        for i, a in enumerate(group):
            if a.is_store:
                # An access can depend on itself across iterations.
                common = a.loops
                distance = _solve_pair(a, a, common, root, strict=True)
                if distance is not None:
                    admit(_make_dependence(a, a, common, distance))
            for b in group[i + 1 :]:
                if not (a.is_store or b.is_store):
                    continue
                common = _common_prefix(a.loops, b.loops)
                forward = _solve_pair(a, b, common, root, strict=False)
                if forward is not None:
                    admit(_make_dependence(a, b, common, forward))
                backward = _solve_pair(b, a, common, root, strict=True)
                if backward is not None:
                    admit(_make_dependence(b, a, common, backward))
    return dependences


def band_dependences(band: Sequence[AffineForOp]) -> List[Dependence]:
    """Dependences of the nest rooted at the outermost loop of ``band``."""
    if not band:
        return []
    return nest_dependences(band[0])


def loop_carried_dependences(
    loop: AffineForOp, accesses: Optional[NestAccesses] = None
) -> List[Dependence]:
    """Dependences carried by ``loop`` itself (distance > 0 at its level)."""
    carried = []
    for dep in nest_dependences(loop, include_loop_independent=False, accesses=accesses):
        if dep.loops and dep.loops[0] is loop and dep.carried_at(0):
            carried.append(dep)
    return carried


def loop_carries_dependence(
    loop: AffineForOp, accesses: Optional[NestAccesses] = None
) -> bool:
    """True when iterations of ``loop`` cannot safely run in parallel."""
    return bool(loop_carried_dependences(loop, accesses))
