"""Affine expressions and (semi-)affine maps.

HIDA represents loop bounds, memory access functions, buffer partition
fashions and data layouts as affine maps; the partition/layout attributes of
a ``buffer`` op are "designed to be converted to semi-affine maps".  This
module provides a small symbolic affine expression language with
simplification, evaluation, and composition, sufficient for dependence
analysis and for the permutation/scaling-map construction of HIDA-OPT.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "AffineExpr",
    "AffineDimExpr",
    "AffineSymbolExpr",
    "AffineConstantExpr",
    "AffineBinaryExpr",
    "AffineMap",
    "dim",
    "symbol",
    "constant",
]


class AffineExpr:
    """Base class of affine expressions over dims (d0, d1, ...) and symbols."""

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("add", self, _wrap(other))

    def __radd__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("add", _wrap(other), self)

    def __sub__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("add", self, _binary("mul", _wrap(other), constant(-1)))

    def __rsub__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("add", _wrap(other), _binary("mul", self, constant(-1)))

    def __mul__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("mul", self, _wrap(other))

    def __rmul__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("mul", _wrap(other), self)

    def __floordiv__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("floordiv", self, _wrap(other))

    def __mod__(self, other: "ExprLike") -> "AffineExpr":
        return _binary("mod", self, _wrap(other))

    def ceildiv(self, other: "ExprLike") -> "AffineExpr":
        return _binary("ceildiv", self, _wrap(other))

    # --------------------------------------------------------------- queries
    def evaluate(
        self,
        dims: Sequence[int] = (),
        symbols: Sequence[int] = (),
    ) -> int:
        """Evaluate the expression with concrete dim/symbol values."""
        raise NotImplementedError

    def used_dims(self) -> Tuple[int, ...]:
        """Sorted tuple of dim positions referenced by this expression."""
        dims: set = set()
        self._collect_dims(dims)
        return tuple(sorted(dims))

    def _collect_dims(self, out: set) -> None:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "affine_expr"

    def __repr__(self) -> str:
        return str(self)


ExprLike = Union[AffineExpr, int]


def _wrap(value: ExprLike) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineConstantExpr(int(value))


@dataclasses.dataclass(frozen=True)
class AffineDimExpr(AffineExpr):
    """A dimension (typically a loop induction variable), ``d<position>``."""

    position: int

    def evaluate(self, dims: Sequence[int] = (), symbols: Sequence[int] = ()) -> int:
        return dims[self.position]

    def _collect_dims(self, out: set) -> None:
        out.add(self.position)

    def __str__(self) -> str:
        return f"d{self.position}"


@dataclasses.dataclass(frozen=True)
class AffineSymbolExpr(AffineExpr):
    """A symbol (a runtime-invariant parameter), ``s<position>``."""

    position: int

    def evaluate(self, dims: Sequence[int] = (), symbols: Sequence[int] = ()) -> int:
        return symbols[self.position]

    def _collect_dims(self, out: set) -> None:
        return None

    def __str__(self) -> str:
        return f"s{self.position}"


@dataclasses.dataclass(frozen=True)
class AffineConstantExpr(AffineExpr):
    """An integer constant."""

    value: int

    def evaluate(self, dims: Sequence[int] = (), symbols: Sequence[int] = ()) -> int:
        return self.value

    def _collect_dims(self, out: set) -> None:
        return None

    def __str__(self) -> str:
        return str(self.value)


_BINARY_SYMBOLS = {
    "add": "+",
    "mul": "*",
    "floordiv": "floordiv",
    "ceildiv": "ceildiv",
    "mod": "mod",
}


@dataclasses.dataclass(frozen=True)
class AffineBinaryExpr(AffineExpr):
    """A binary affine (or semi-affine, for div/mod) expression."""

    kind: str
    lhs: AffineExpr
    rhs: AffineExpr

    def evaluate(self, dims: Sequence[int] = (), symbols: Sequence[int] = ()) -> int:
        lhs = self.lhs.evaluate(dims, symbols)
        rhs = self.rhs.evaluate(dims, symbols)
        if self.kind == "add":
            return lhs + rhs
        if self.kind == "mul":
            return lhs * rhs
        if self.kind == "floordiv":
            return int(lhs) // int(rhs)
        if self.kind == "ceildiv":
            return -(-int(lhs) // int(rhs))
        if self.kind == "mod":
            return int(lhs) % int(rhs)
        raise ValueError(f"unknown affine binary kind {self.kind!r}")

    def _collect_dims(self, out: set) -> None:
        self.lhs._collect_dims(out)
        self.rhs._collect_dims(out)

    def __str__(self) -> str:
        return f"({self.lhs} {_BINARY_SYMBOLS[self.kind]} {self.rhs})"


def _binary(kind: str, lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    """Create a binary expression with light constant folding."""
    if isinstance(lhs, AffineConstantExpr) and isinstance(rhs, AffineConstantExpr):
        return AffineConstantExpr(
            int(AffineBinaryExpr(kind, lhs, rhs).evaluate())
        )
    if kind == "add":
        if isinstance(lhs, AffineConstantExpr) and lhs.value == 0:
            return rhs
        if isinstance(rhs, AffineConstantExpr) and rhs.value == 0:
            return lhs
    if kind == "mul":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(a, AffineConstantExpr):
                if a.value == 0:
                    return AffineConstantExpr(0)
                if a.value == 1:
                    return b
    return AffineBinaryExpr(kind, lhs, rhs)


def dim(position: int) -> AffineDimExpr:
    """Shorthand for :class:`AffineDimExpr`."""
    return AffineDimExpr(position)


def symbol(position: int) -> AffineSymbolExpr:
    """Shorthand for :class:`AffineSymbolExpr`."""
    return AffineSymbolExpr(position)


def constant(value: int) -> AffineConstantExpr:
    """Shorthand for :class:`AffineConstantExpr`."""
    return AffineConstantExpr(value)


@dataclasses.dataclass(frozen=True)
class AffineMap:
    """A function mapping ``num_dims`` dims and ``num_symbols`` symbols to results."""

    num_dims: int
    num_symbols: int
    results: Tuple[AffineExpr, ...]

    def __init__(
        self,
        num_dims: int,
        num_symbols: int,
        results: Sequence[ExprLike],
    ) -> None:
        object.__setattr__(self, "num_dims", num_dims)
        object.__setattr__(self, "num_symbols", num_symbols)
        object.__setattr__(
            self, "results", tuple(_wrap(r) for r in results)
        )

    # ---------------------------------------------------------- constructors
    @classmethod
    def identity(cls, rank: int) -> "AffineMap":
        return cls(rank, 0, [dim(i) for i in range(rank)])

    @classmethod
    def constant_map(cls, values: Sequence[int]) -> "AffineMap":
        return cls(0, 0, [constant(v) for v in values])

    @classmethod
    def permutation(cls, order: Sequence[int]) -> "AffineMap":
        return cls(len(order), 0, [dim(i) for i in order])

    @classmethod
    def from_callable(cls, rank: int, fn) -> "AffineMap":
        """Build a map from a Python callable over dim expressions."""
        exprs = fn(*[dim(i) for i in range(rank)])
        if isinstance(exprs, AffineExpr):
            exprs = [exprs]
        return cls(rank, 0, list(exprs))

    # --------------------------------------------------------------- queries
    @property
    def num_results(self) -> int:
        return len(self.results)

    def evaluate(
        self,
        dims: Sequence[int] = (),
        symbols: Sequence[int] = (),
    ) -> Tuple[int, ...]:
        if len(dims) != self.num_dims:
            raise ValueError(
                f"map expects {self.num_dims} dims, got {len(dims)}"
            )
        return tuple(r.evaluate(dims, symbols) for r in self.results)

    def is_identity(self) -> bool:
        if self.num_results != self.num_dims:
            return False
        return all(
            isinstance(r, AffineDimExpr) and r.position == i
            for i, r in enumerate(self.results)
        )

    def is_permutation(self) -> bool:
        positions = []
        for r in self.results:
            if not isinstance(r, AffineDimExpr):
                return False
            positions.append(r.position)
        return sorted(positions) == list(range(self.num_dims))

    def used_dims(self) -> Tuple[int, ...]:
        dims_used: set = set()
        for r in self.results:
            r._collect_dims(dims_used)
        return tuple(sorted(dims_used))

    def single_dim_strides(self) -> List[Optional[Tuple[int, int]]]:
        """Per result ``f``: ``(d, f(e_d) - f(0))`` when ``f`` mentions exactly
        one dim ``d``, else None.

        The position is syntactic and the stride is probed, not solved for:
        ``d2 * 2`` gives ``(2, 2)`` and ``d0 + 1`` gives ``(0, 1)``, but
        ``d0 floordiv 120`` gives ``(0, 0)``.  The connection analysis of
        HIDA-OPT derives its permutation and scaling maps from this.  A bare
        ``dN`` result, most of them, is ``(N, 1)`` without probing.
        """
        zeros = [0] * self.num_dims
        decoded: List[Optional[Tuple[int, int]]] = []
        for r in self.results:
            if isinstance(r, AffineDimExpr):
                decoded.append((r.position, 1))
                continue
            used = r.used_dims()
            if len(used) != 1:
                decoded.append(None)
                continue
            unit = list(zeros)
            unit[used[0]] = 1
            decoded.append((used[0], r.evaluate(unit) - r.evaluate(zeros)))
        return decoded

    # ------------------------------------------------------------- transform
    def compose(self, other: "AffineMap") -> "AffineMap":
        """Return ``self ∘ other`` (apply other first, then self)."""
        if self.num_dims != other.num_results:
            raise ValueError(
                f"cannot compose: {self.num_dims} dims vs {other.num_results} results"
            )
        substituted = [
            _substitute(r, other.results) for r in self.results
        ]
        return AffineMap(other.num_dims, other.num_symbols, substituted)

    def __str__(self) -> str:
        dims_str = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms_str = ", ".join(f"s{i}" for i in range(self.num_symbols))
        syms = f"[{syms_str}]" if self.num_symbols else ""
        res = ", ".join(str(r) for r in self.results)
        return f"({dims_str}){syms} -> ({res})"


def _substitute(expr: AffineExpr, dim_replacements: Sequence[AffineExpr]) -> AffineExpr:
    if isinstance(expr, AffineDimExpr):
        return dim_replacements[expr.position]
    if isinstance(expr, (AffineConstantExpr, AffineSymbolExpr)):
        return expr
    if isinstance(expr, AffineBinaryExpr):
        return _binary(
            expr.kind,
            _substitute(expr.lhs, dim_replacements),
            _substitute(expr.rhs, dim_replacements),
        )
    raise TypeError(f"unknown affine expression {expr!r}")
