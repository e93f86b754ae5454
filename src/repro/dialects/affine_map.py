"""Affine expressions and (semi-)affine maps.

HIDA represents loop bounds, memory access functions, buffer partition
fashions and data layouts as affine maps; the partition/layout attributes of
a ``buffer`` op are "designed to be converted to semi-affine maps".  This
module provides a small symbolic affine expression language with
simplification and evaluation, sufficient for dependence analysis and for
the permutation/scaling-map construction of HIDA-OPT.

The language holds what the compiler builds and nothing more.  Every loop
has constant bounds, so a map has dims (``d0``, ``d1``, ...) and no
runtime parameters; its atoms are dims and ``int`` constants, and its
binary kinds are ``add``, ``mul``, ``floordiv`` and ``mod``.  Constants are
``int`` by construction: :func:`constant` and the arithmetic operators raise
:class:`TypeError` on any other value.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "AffineExpr",
    "AffineDimExpr",
    "AffineConstantExpr",
    "AffineBinaryExpr",
    "AffineMap",
    "dim",
    "constant",
]


class AffineExpr:
    """Base class of affine expressions over dims (d0, d1, ...)."""

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

    # --------------------------------------------------------------- queries
    def evaluate(self, dims: Sequence[int] = ()) -> int:
        """Evaluate the expression with concrete dim values."""
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
    if type(value) is not int:
        raise TypeError(f"affine constant must be an int, got {value!r}")
    return AffineConstantExpr(value)


@dataclasses.dataclass(frozen=True)
class AffineDimExpr(AffineExpr):
    """A dimension (typically a loop induction variable), ``d<position>``."""

    position: int

    def evaluate(self, dims: Sequence[int] = ()) -> int:
        return dims[self.position]

    def _collect_dims(self, out: set) -> None:
        out.add(self.position)

    def __str__(self) -> str:
        return f"d{self.position}"


@dataclasses.dataclass(frozen=True)
class AffineConstantExpr(AffineExpr):
    """An integer constant."""

    value: int

    def evaluate(self, dims: Sequence[int] = ()) -> int:
        return self.value

    def _collect_dims(self, out: set) -> None:
        return None

    def __str__(self) -> str:
        return str(self.value)


_BINARY_SYMBOLS = {
    "add": "+",
    "mul": "*",
    "floordiv": "floordiv",
    "mod": "mod",
}


@dataclasses.dataclass(frozen=True)
class AffineBinaryExpr(AffineExpr):
    """A binary affine (or semi-affine, for div/mod) expression."""

    kind: str
    lhs: AffineExpr
    rhs: AffineExpr

    def evaluate(self, dims: Sequence[int] = ()) -> int:
        lhs = self.lhs.evaluate(dims)
        rhs = self.rhs.evaluate(dims)
        if self.kind == "add":
            return lhs + rhs
        if self.kind == "mul":
            return lhs * rhs
        if self.kind == "floordiv":
            return lhs // rhs
        if self.kind == "mod":
            return lhs % rhs
        raise ValueError(f"unknown affine binary kind {self.kind!r}")

    def _collect_dims(self, out: set) -> None:
        self.lhs._collect_dims(out)
        self.rhs._collect_dims(out)

    def __str__(self) -> str:
        return f"({self.lhs} {_BINARY_SYMBOLS[self.kind]} {self.rhs})"


def _binary(kind: str, lhs: AffineExpr, rhs: AffineExpr) -> AffineExpr:
    """Create a binary expression with light constant folding."""
    if isinstance(lhs, AffineConstantExpr) and isinstance(rhs, AffineConstantExpr):
        return AffineConstantExpr(AffineBinaryExpr(kind, lhs, rhs).evaluate())
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


def constant(value: int) -> AffineConstantExpr:
    """Shorthand for :class:`AffineConstantExpr`; ``value`` must be an ``int``."""
    if type(value) is not int:
        raise TypeError(f"affine constant must be an int, got {value!r}")
    return AffineConstantExpr(value)


@dataclasses.dataclass(frozen=True)
class AffineMap:
    """A function mapping ``num_dims`` dims to results."""

    num_dims: int
    results: Tuple[AffineExpr, ...]

    def __init__(self, num_dims: int, results: Sequence[ExprLike]) -> None:
        object.__setattr__(self, "num_dims", num_dims)
        object.__setattr__(
            self, "results", tuple(_wrap(r) for r in results)
        )

    # --------------------------------------------------------------- queries
    @property
    def num_results(self) -> int:
        return len(self.results)

    def evaluate(self, dims: Sequence[int] = ()) -> Tuple[int, ...]:
        if len(dims) != self.num_dims:
            raise ValueError(
                f"map expects {self.num_dims} dims, got {len(dims)}"
            )
        return tuple(r.evaluate(dims) for r in self.results)

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

    def __str__(self) -> str:
        dims_str = ", ".join(f"d{i}" for i in range(self.num_dims))
        res = ", ".join(str(r) for r in self.results)
        return f"({dims_str}) -> ({res})"
