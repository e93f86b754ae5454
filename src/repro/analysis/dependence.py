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
non-linear (``floordiv``/``mod``, values computed inside the nest)
degrades *conservatively*: the analysis may report a dependence
that does not exist, but never misses one.  Each distance entry is one of

* ``exact`` — the distance at that level is a known integer;
* ``atleast`` — lower-bounded (from the lexicographic ordering of source
  before sink), e.g. the carried level of a reduction;
* ``any`` — unconstrained by the subscripts;
* ``unknown`` — the subscripts could not be analyzed at this level.

``exact``/``atleast`` entries are sound bounds; ``any``/``unknown`` must
be treated as "every distance possible".

All arithmetic is integral: affine constants, loop bounds and steps are
``int`` by construction (:func:`~repro.dialects.affine_map.constant` and the
expression operators refuse any other value), so linear forms and the GCD /
bounds tests run on ``int``.

Sharing the answers
-------------------
:class:`NestAccesses` walks a nest once and numbers what it saw into a
**canonical problem** (``_Problem``) that holds no IR object: loops by first
appearance as lower bound, step, trip count and the ``parallel`` attribute,
buffers by first appearance, and each access as buffer number, load or
store, the loop around it and its linearized subscripts, every subscript
variable coded as *IV of loop n*, *value defined inside the nest under loop
h* or *external value k*.  :func:`_solve` takes that problem (plus which of
its loops the question is rooted at) as its only input and returns
positional records; one bounded process-level table keeps them per
problem, and each question re-binds the records to the asking nest's ops
and loops as fresh :class:`Dependence` objects.

The key is complete by construction, not by audit: the solver has no other
argument, so it cannot read a bound, an attribute or an SSA value that is
not part of the key.  For the same reason nothing is ever invalidated — a
permuted or re-tiled band numbers into a *different* problem, and the old
entry is merely unused until the bound evicts it.  A question rooted at an
inner loop is a rooted solve over the accesses under that loop (an outer IV
is one more invariant; a value is "inside" iff its home loop is), never a
projection of the outer nest's vectors, so it answers exactly like a fresh
walk of the inner loop.  What is shared is only ints, strs, bools, None,
tuples and frozen :class:`DistanceElement`s; ``Dependence`` objects, ops,
loops and values never are.  A :class:`NestAccesses` describes one IR
state.  The one mutation that follows it is ``permute_band``: it keeps the
loop ops in place and exchanges bounds, attributes and IV uses, so
:meth:`NestAccesses.permuted` renumbers the collection into the permuted
nest's problem without walking it again.  Whoever mutates the nest any
other way walks it afresh.

The walk also records each access's ``driving_loops()`` decode
(``drivers``), so the connection analysis need not decode it again, and
:func:`loop_carries_dependence` reads the table's records directly,
binding no ``Dependence``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .. import obs
from ..dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    loop_of,
)
from ..dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineExpr,
    AffineMap,
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
    return DistanceElement(_EXACT, value) if value else _ZERO_DISTANCE


# Frozen, so one object serves every vector that holds it.
_ZERO_DISTANCE = DistanceElement(_EXACT, 0)
_ANY_DISTANCE = DistanceElement(_ANY)
_UNKNOWN_DISTANCE = DistanceElement(_UNKNOWN)


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
    if isinstance(expr, AffineDimExpr):
        if expr.position >= len(dim_forms):
            return None
        return dim_forms[expr.position]
    if isinstance(expr, AffineConstantExpr):
        return _LinearIndex({}, expr.value)
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
        # floordiv / mod: fold only the fully constant case.
        lc, rc = lhs.constant_value, rhs.constant_value
        if lc is not None and rc is not None and rc != 0:
            if expr.kind == "floordiv":
                return _LinearIndex({}, lc // rc)
            if expr.kind == "mod":
                return _LinearIndex({}, lc % rc)
        return None
    return None


def linear_subscripts(
    op: Union[AffineLoadOp, AffineStoreOp]
) -> List[Optional[_LinearIndex]]:
    """Per subscript of an affine load/store, its linear form, None if non-linear.

    Each is the access map's result expression folded over the linearized
    index operands, so both map-level arithmetic like ``d0 * 2 + 1`` and
    operand-level ``affine.apply`` chains land in one linear form.
    """
    return _linear_subscripts(op.index_operands, op.access_map, {})


def _linear_subscripts(
    operands: Sequence[Value], access_map: AffineMap, operand_forms: Dict[Value, _LinearIndex]
) -> List[Optional[_LinearIndex]]:
    """:func:`linear_subscripts` of the access with these index operands and
    map, linearizing each distinct index operand of one unchanging nest
    once: ``operand_forms`` remembers them."""
    for index in operands:
        if index not in operand_forms:
            operand_forms[index] = _linearize_value(index)
    forms = [operand_forms[index] for index in operands]
    return [_expr_to_linear(expr, forms) for expr in access_map.results]


# ---------------------------------------------------------------------------
# The canonical problem
# ---------------------------------------------------------------------------

#: Home of a subscript variable that is no induction variable of the nest:
#: the number of the innermost loop around its definition, or one of these.
_UNDER_ROOT = -1  # inside the nest's root op (not itself a loop), under no loop
_EXTERNAL = -2  # defined outside the nest

#: ``(lowers, steps, trips, parallels, parents, homes, accesses)``.  The first
#: five hold one entry per loop, numbered by first appearance: lower bound,
#: step, trip count, whether it is declared ``parallel``, and the number of
#: the loop around it (-1 at the top).  ``homes`` has one entry per non-IV
#: subscript variable.  ``accesses`` has one row per load/store in program
#: order: ``(buffer number, is_store, innermost loop around it, *subscripts)``,
#: a subscript being None (not linear) or ``(const, var, coeff, var, coeff,
#: ...)`` where ``var >= 0`` is the IV of that loop and ``~var`` indexes ``homes``.
_Problem = Tuple[Tuple[Any, ...], ...]

#: One answer: ``(source access, sink access, kind, common depth, distance)``.
_Record = Tuple[int, int, str, int, Tuple[DistanceElement, ...]]


class NestAccesses:
    """The affine accesses of one nest, walked, linearized and numbered once.

    Describes the IR as it was when built; see "Sharing the answers" in the
    module docstring for what is shared through it and what never is.
    """

    def __init__(self, root: Operation) -> None:
        self.root = root
        self.ops: List[Operation] = []  # the loads and stores, program order
        #: Per access, its ``driving_loops()`` decode, read off the walk.
        self.drivers: List[List[Optional[Tuple[AffineForOp, int]]]] = []
        self._memrefs: List[Value] = []  # the buffer of each
        self._paths: List[Tuple[AffineForOp, ...]] = []  # the loops around each
        self._numbers: Dict[Operation, int] = {}  # loop -> number
        self._depths: List[int] = []  # how many loops are around each loop
        columns: Tuple[List[Any], ...] = ([], [], [], [], [], [], [])
        lowers, steps, trips, parallels, parents, homes, accesses = columns
        numbers = self._numbers
        loops: List[AffineForOp] = []  # number -> loop
        codes: Dict[Value, int] = {}  # subscript variable -> ``var``
        buffers: Dict[Value, int] = {}
        operand_forms: Dict[Value, _LinearIndex] = {}

        def home(value: Value) -> int:
            owner = value.owner
            op = owner.parent_op if isinstance(owner, Block) else owner
            if isinstance(op, AffineForOp) and isinstance(owner, Block):
                # The IV of a loop without a number: this nest is inside it.
                return _EXTERNAL
            while op is not None:
                if op in numbers:
                    return numbers[op]
                if op is root:
                    return _UNDER_ROOT
                op = op.parent_op
            return _EXTERNAL

        def number_access(
            op: Union[AffineLoadOp, AffineStoreOp], path: Tuple[AffineForOp, ...], leaf: int
        ) -> None:
            memref = op.memref
            buffer = buffers.get(memref)
            if buffer is None:
                buffer = buffers[memref] = len(buffers)
            row = [buffer, isinstance(op, AffineStoreOp), leaf]
            operands = op.index_operands
            access_map = op.access_map
            for form in _linear_subscripts(operands, access_map, operand_forms):
                if form is None:
                    row.append(None)
                    continue
                subscript = [form.const]
                for value, coeff in form.coeffs.items():
                    code = codes.get(value)
                    if code is None:
                        code = codes[value] = ~len(homes)
                        homes.append(home(value))
                    subscript += (code, coeff)
                row.append(tuple(subscript))
            # ``op.driving_loops()``: the IV of a numbered loop is that loop.
            drivers: List[Optional[Tuple[AffineForOp, int]]] = []
            for decoded in access_map.single_dim_strides():
                if decoded is None:
                    drivers.append(None)
                    continue
                value = operands[decoded[0]]
                code = codes.get(value, -1)
                loop = loops[code] if code >= 0 else loop_of(value)
                drivers.append(None if loop is None else (loop, decoded[1]))
            accesses.append(tuple(row))
            self.ops.append(op)
            self.drivers.append(drivers)
            self._memrefs.append(memref)
            self._paths.append(path)

        def number(op: Operation, path: Tuple[AffineForOp, ...], leaf: int) -> None:
            """``op`` if it is a loop, then everything under it."""
            if isinstance(op, AffineForOp):
                numbers[op] = codes[op.induction_variable] = len(lowers)
                loops.append(op)
                self._depths.append(len(path))
                parents.append(leaf)
                leaf = len(lowers)
                lowers.append(op.lower_bound)
                steps.append(op.step)
                trips.append(op.trip_count)
                parallels.append(op.has_attr("parallel") and op.is_parallel)
                path += (op,)
            for region in op.regions:
                for block in region.blocks:
                    for child in block.operations:
                        if isinstance(child, (AffineLoadOp, AffineStoreOp)):
                            number_access(child, path, leaf)
                        elif child.regions:
                            number(child, path, leaf)

        number(root, (), -1)
        del number  # its self-reference would keep this walk's scratch for the collector
        self.problem: _Problem = tuple(map(tuple, columns))
        self._answers = _answers_of(self.problem)

    def permuted(self, band: Sequence[AffineForOp], order: Sequence[int]) -> "NestAccesses":
        """This collection as it is after ``permute_band(band, order)``.

        ``permute_band`` keeps every loop op in place and exchanges bounds,
        attributes and IV uses.  When ``band`` is this collection's loops
        ``0..n-1``, the permuted nest is therefore the same problem with
        those loops' columns reordered (new level ``j`` takes old level
        ``order[j]``'s lower bound, step, trip count and ``parallel``) and
        each IV code ``p`` renumbered to ``order.index(p)``: the ops, paths
        and loop numbers stay, and the drivers follow their IVs.  Any other
        ``band`` is walked afresh.
        """
        size = len(band)
        if any(self._numbers.get(loop) != level for level, loop in enumerate(band)):
            return NestAccesses(self.root)
        level_of = [0] * size  # old level -> new level
        for new, old in enumerate(order):
            level_of[old] = new
        *columns, parents, homes, accesses = self.problem
        rows = []
        for buffer, is_store, leaf, *subscripts in accesses:
            row: List[Any] = [buffer, is_store, leaf]
            for subscript in subscripts:
                if subscript is not None:
                    subscript = list(subscript)
                    for at in range(1, len(subscript), 2):
                        if 0 <= subscript[at] < size:
                            subscript[at] = level_of[subscript[at]]
                    subscript = tuple(subscript)
                row.append(subscript)
            rows.append(tuple(row))
        problem: _Problem = (
            *(tuple(column[old] for old in order) + column[size:] for column in columns),
            parents,
            homes,
            tuple(rows),
        )
        moved = {band[old]: band[new] for new, old in enumerate(order)}
        drivers = [
            [driver and (moved.get(driver[0], driver[0]), driver[1]) for driver in decode]
            for decode in self.drivers
        ]
        permuted = object.__new__(NestAccesses)
        vars(permuted).update(
            vars(self), problem=problem, drivers=drivers, _answers=_answers_of(problem)
        )
        return permuted

    def _records(
        self, root: Operation, include_loop_independent: bool
    ) -> Tuple[int, Tuple[_Record, ...]]:
        """The number of ``root`` (-1: the nest's root, not a loop) and the
        table's records for it, solved on a miss."""
        number = self._numbers.get(root, -1)
        if number < 0 and root is not self.root:
            raise ValueError("root is not a loop of the nest these accesses cover")
        key = (number, include_loop_independent)
        records = self._answers.get(key)
        if records is None:
            records = self._answers[key] = _solve(self.problem, *key)
            _COUNTS["solved"] += 1
            obs.inc("dependence.solved")
        else:
            _COUNTS["reused"] += 1
            obs.inc("dependence.reused")
        return number, records

    def _dependences(
        self, root: Operation, include_loop_independent: bool
    ) -> List[Dependence]:
        """The table's answer for ``root``, bound to this nest's ops and loops."""
        number, records = self._records(root, include_loop_independent)
        ops, memrefs, paths = self.ops, self._memrefs, self._paths
        outer = self._depths[number] if number >= 0 else 0  # loops around ``root``
        return [
            Dependence(
                ops[source],
                ops[sink],
                memrefs[source],
                kind,
                paths[source][outer : outer + depth],
                distance,
            )
            for source, sink, kind, depth, distance in records
        ]


# ---------------------------------------------------------------------------
# The answer table
# ---------------------------------------------------------------------------

#: Distinct problems whose answers are kept; the oldest goes first.  A form of
#: the zoo weighs about 2.9 KB with its answers (219 forms, 0.63 MB after one
#: ``zoo-compile`` round), so the table tops out near 1.5 MB.
_MAX_FORMS = 512

#: problem -> {(root loop number, include_loop_independent): records}.  Only
#: ints, strs, bools, None, tuples and frozen ``DistanceElement``s live here.
_TABLE: Dict[_Problem, Dict[Tuple[int, bool], Tuple[_Record, ...]]] = {}
_COUNTS = {"reused": 0, "solved": 0}


def _answers_of(problem: _Problem) -> Dict[Tuple[int, bool], Tuple[_Record, ...]]:
    answers = _TABLE.get(problem)
    if answers is None:
        while len(_TABLE) >= _MAX_FORMS:
            _TABLE.pop(next(iter(_TABLE)), None)
        answers = _TABLE[problem] = {}
    return answers


def table_stats() -> Dict[str, int]:
    """Questions answered from the table (``reused``) and by the solver
    (``solved``) in this process, and the ``forms`` the table holds now."""
    return {**_COUNTS, "forms": len(_TABLE)}


# ---------------------------------------------------------------------------
# Solving a canonical problem
# ---------------------------------------------------------------------------

#: ``deepest`` of a subscript fed by something that varies inside the root
#: independently of any common loop.
_NEVER_COMMON = 1 << 30


class _Subscript(NamedTuple):
    """One linear subscript as a question rooted at some loop sees it."""

    const: int
    levels: Dict[int, int]  # coefficient of the IV at each depth below the root
    invariants: Dict[int, int]  # coefficient per variable defined outside the root
    deepest: int  # the deepest level used; ``_NEVER_COMMON`` as above


class _Rooted(NamedTuple):
    """One access under the root of a question."""

    position: int  # among the accesses of the whole nest
    is_store: bool
    path: Tuple[int, ...]  # the loops around it, from the root down
    subscripts: List[Optional[_Subscript]]


class _Common(NamedTuple):
    """The loops around both accesses of a pair, outermost first, by column."""

    lowers: List[int]
    steps: List[int]
    trips: List[int]
    parallels: List[bool]


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _solve(
    problem: _Problem, root: int, include_loop_independent: bool
) -> Tuple[_Record, ...]:
    """Every dependence between the accesses under loop ``root`` (-1: the
    whole nest) of ``problem``, which is all this function can see.

    Every pair of accesses to the same buffer with at least one store is
    solved in both directions over their common enclosing loops from
    ``root`` down: program order for the forward direction, strictly
    earlier iterations for the backward one.  A loop outside ``root`` is
    not a level of the answer: its IV is one more invariant.
    """
    parents, homes, accesses = problem[4:]
    # Per loop, the loops from ``root`` down to it; None outside ``root``.
    paths: List[Optional[Tuple[int, ...]]] = []
    for loop, parent in enumerate(parents):
        if loop == root or (root < 0 and parent < 0):
            paths.append((loop,))
        else:
            above = paths[parent] if parent >= 0 else None
            paths.append(None if above is None else above + (loop,))

    def rooted(subscript: Tuple[int, ...], path: Tuple[int, ...]) -> _Subscript:
        levels: Dict[int, int] = {}
        invariants: Dict[int, int] = {}
        deepest = -1
        for at in range(1, len(subscript), 2):
            var, coeff = subscript[at], subscript[at + 1]
            home = var if var >= 0 else homes[~var]
            below = paths[home] if home >= 0 else None
            if below is None and (home == _EXTERNAL or root >= 0):
                invariants[var] = coeff  # defined outside ``root``: one value
            elif var >= 0 and below is not None and path[: len(below)] == below:
                levels[len(below) - 1] = coeff  # the IV of a loop around the access
                deepest = max(deepest, len(below) - 1)
            else:
                deepest = _NEVER_COMMON  # varies inside ``root`` on its own
        return _Subscript(subscript[0], levels, invariants, deepest)

    # The accesses under ``root`` per buffer, both in first-appearance order.
    groups: Dict[int, List[_Rooted]] = {}
    for position, (buffer, is_store, leaf, *subscripts) in enumerate(accesses):
        path = paths[leaf] if leaf >= 0 else (() if root < 0 else None)
        if path is not None:
            decoded = [None if sub is None else rooted(sub, path) for sub in subscripts]
            groups.setdefault(buffer, []).append(_Rooted(position, is_store, path, decoded))

    records: List[_Record] = []
    commons: Dict[Tuple[int, ...], _Common] = {}

    def solve(src: _Rooted, dst: _Rooted, path: Tuple[int, ...], strict: bool) -> None:
        common = commons.get(path)
        if common is None:
            common = commons[path] = _Common(
                *([column[loop] for loop in path] for column in problem[:4])
            )
        distance = _solve_pair(src.subscripts, dst.subscripts, common, strict)
        if distance is not None and (
            include_loop_independent
            or not all(element.can_be_zero for element in distance)
            or any(
                element.can_be_positive(trip)
                for element, trip in zip(distance, common.trips)
            )
        ):
            kind = _dependence_kind(src.is_store, dst.is_store)
            records.append((src.position, dst.position, kind, len(path), tuple(distance)))

    for group in groups.values():
        for i, a in enumerate(group):
            if a.is_store:
                # An access can depend on itself across iterations.
                solve(a, a, a.path, True)
            for b in group[i + 1 :]:
                if not (a.is_store or b.is_store):
                    continue
                shared = 0
                for loop_a, loop_b in zip(a.path, b.path):
                    if loop_a != loop_b:
                        break
                    shared += 1
                solve(a, b, a.path[:shared], False)
                solve(b, a, a.path[:shared], True)
    return tuple(records)


def _dependence_kind(source_is_store: bool, sink_is_store: bool) -> str:
    if source_is_store and sink_is_store:
        return "WAW"
    if source_is_store:
        return "RAW"
    return "WAR"


def _solve_pair(
    src: Sequence[Optional[_Subscript]],
    dst: Sequence[Optional[_Subscript]],
    common: _Common,
    strict: bool,
) -> Optional[List[DistanceElement]]:
    """Distance vector of src -> dst over the loops ``common``; None if
    independent.

    ``strict`` demands a lexicographically positive distance (src in a
    strictly earlier iteration); otherwise equal iterations also count
    (src precedes dst in program order).
    """
    lowers, steps, trips, parallels = common
    n = len(trips)
    exact: List[Optional[int]] = [None] * n
    unknown = [False] * n
    pair_unknown = False

    for fa, fb in zip(src, dst):
        if fa is None or fb is None:
            pair_unknown = True
            continue
        coeff_a, coeff_b = fa.levels, fb.levels
        if fa.deepest >= n or fb.deepest >= n:
            # An index that varies per instance independently of the common
            # loops (inner loop IV, computed value): the dim imposes no
            # constraint we can use — assume it can match.
            continue
        involved = sorted(set(coeff_a) | set(coeff_b))
        if fa.invariants != fb.invariants:
            # Loop-invariant value with different weight on each side: the
            # offset between the two subscripts is unknown.
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
        if coeff_a == coeff_b:
            if not _solve_uniform_dim(involved, coeff_a, const, common, exact, unknown):
                return None  # no aliasing iteration pair: independent
            continue
        # General case: GCD + bounds tests over iteration-number variables.
        # sum(a_l*s_l * t_src_l) - sum(b_l*s_l * t_dst_l) = C2
        terms: List[Tuple[int, int]] = []  # (coefficient, trip range)
        c2 = const
        for level in involved:
            a = coeff_a.get(level, 0)
            b = coeff_b.get(level, 0)
            c2 -= (a - b) * lowers[level]
            if a:
                terms.append((a * steps[level], max(trips[level] - 1, 0)))
            if b:
                terms.append((-b * steps[level], max(trips[level] - 1, 0)))
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
        value = exact[level]
        if value is not None:
            elements.append(_exact(value))
        elif unknown[level] or pair_unknown:
            elements.append(_UNKNOWN_DISTANCE)
        else:
            elements.append(_ANY_DISTANCE)

    # A loop the lowering explicitly declared ``parallel`` (e.g. the output
    # dimensions of a linalg op, whose delinearized subscripts can exceed
    # the linear model) carries no cross-iteration aliasing: resolve
    # conservative levels to zero.  Proven exact distances are kept — an
    # attribute never overrides a proof.
    for level, parallel in enumerate(parallels):
        if parallel and elements[level].kind != _EXACT:
            elements[level] = _ZERO_DISTANCE

    return _apply_ordering(elements, trips, strict)


def _solve_uniform_dim(
    involved: Sequence[int],
    coeffs: Dict[int, int],
    const: int,
    common: _Common,
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
        g = coeffs.get(level, 0) * common.steps[level]
        if g != 0:
            terms.append((level, g, max(common.trips[level] - 1, 0)))
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
    trips: Sequence[int],
    strict: bool,
) -> Optional[List[DistanceElement]]:
    """Intersect with the lexicographic source-before-sink constraint
    (``trips``: the trip count of each level).

    Returns refined elements, or None when no ordered iteration pair exists
    (the candidate dependence is infeasible).
    """
    # Single-iteration loops force a zero distance.
    for i, element in enumerate(elements):
        if trips[i] <= 1:
            if element.kind == _EXACT and element.value != 0:
                return None
            if element.kind == _ATLEAST and element.value > 0:
                return None
            elements[i] = _ZERO_DISTANCE
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


def nest_dependences(
    root: Operation,
    include_loop_independent: bool = True,
    accesses: Optional[NestAccesses] = None,
) -> List[Dependence]:
    """All memory dependences between affine accesses nested under ``root``
    (see :func:`_solve`), as fresh :class:`Dependence` objects.  ``accesses``
    is a collection of an enclosing nest to answer from instead of walking
    ``root`` again.
    """
    nest = accesses or NestAccesses(root)
    return nest._dependences(root, include_loop_independent)


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
    """True when iterations of ``loop`` cannot safely run in parallel:
    ``bool(loop_carried_dependences(loop, accesses))``, read off the table's
    records without binding a :class:`Dependence`.  A record rooted at
    ``loop`` with a level has ``loop`` as its first, and no outer level to
    hold at zero."""
    _, records = (accesses or NestAccesses(loop))._records(loop, False)
    trip_count = loop.trip_count
    for _, _, _, depth, distance in records:
        if depth and distance[0].can_be_positive(trip_count):
            return True
    return False
