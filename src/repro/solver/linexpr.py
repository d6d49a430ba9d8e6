"""Exact linear expressions over query columns.

The verifier reasons about conjunctions of comparisons between linear
combinations of columns and rational constants (e.g. ``A.val - B.val >
10``). Coefficients are :class:`fractions.Fraction` so canonicalization
and the Fourier–Motzkin procedure (:mod:`repro.solver.fm`) are exact —
no float-epsilon soundness holes in the equivalence verifier.

Columns are identified by opaque strings (``"alias.column"`` in plan
contexts). A :class:`LinExpr` is ``sum(coeffs[c] * c) + const``.
Each constructor converts and normalizes a value once, and
:meth:`repro.core.plan.Comparison.to_constraint` lowers a predicate in
one pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

Rational = int | float | Fraction
_ZERO = Fraction(0)  # immutable, so one instance serves every absent coefficient


def exact(x: Rational) -> int | Fraction:
    """``x`` as an exact number: a float becomes the nearest fraction with
    denominator at most 10**9, and an integral value stays (or becomes)
    an ``int``, so that arithmetic on it builds no Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return Fraction(x).limit_denominator(10**9)


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return _frac(exact(x))


def _sorted_nonzero(merged: Mapping[str, Fraction], const: Fraction) -> "LinExpr":
    """The LinExpr of already-exact coefficients: zeros dropped, sorted."""
    return LinExpr(tuple(sorted((c, v) for c, v in merged.items() if v)), const)


@dataclass(frozen=True)
class LinExpr:
    """Immutable linear expression ``sum(coeffs[c]*c) + const``.

    ``coeffs`` never stores zero coefficients, so structural equality is
    semantic equality.
    """

    coeffs: tuple[tuple[str, Fraction], ...] = field(default=())
    const: Fraction = field(default=_ZERO)

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(coeffs: Mapping[str, Rational] | None = None, const: Rational = 0) -> "LinExpr":
        values = {c: _frac(v) for c, v in (coeffs or {}).items()}
        return _sorted_nonzero(values, _frac(const))

    @staticmethod
    def col(name: str) -> "LinExpr":
        return LinExpr.of({name: 1})

    @staticmethod
    def lit(value: Rational) -> "LinExpr":
        return LinExpr.of({}, value)

    # -- accessors ----------------------------------------------------
    def coeff(self, name: str) -> Fraction:
        for c, v in self.coeffs:
            if c == name:
                return v
        return _ZERO

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "LinExpr | Rational") -> "LinExpr":
        if not isinstance(other, LinExpr):
            other = LinExpr.lit(other)
        merged: dict[str, Fraction] = dict(self.coeffs)
        for c, v in other.coeffs:
            merged[c] = merged[c] + v if c in merged else v
        return _sorted_nonzero(merged, self.const + other.const)

    def __neg__(self) -> "LinExpr":
        return LinExpr(tuple((c, -v) for c, v in self.coeffs), -self.const)

    def __sub__(self, other: "LinExpr | Rational") -> "LinExpr":
        if not isinstance(other, LinExpr):
            other = LinExpr.lit(other)
        merged: dict[str, Fraction] = dict(self.coeffs)
        for c, v in other.coeffs:
            merged[c] = merged[c] - v if c in merged else -v
        return _sorted_nonzero(merged, self.const - other.const)

    def __mul__(self, k: Rational) -> "LinExpr":
        k = _frac(k)
        if k == 0:
            return LinExpr.lit(0)
        return LinExpr(tuple((c, v * k) for c, v in self.coeffs), self.const * k)

    __rmul__ = __mul__

    def substitute(self, name: str, replacement: "LinExpr") -> "LinExpr":
        """Replace column ``name`` with ``replacement``."""
        k = self.coeff(name)
        if k == 0:
            return self
        remaining = LinExpr(
            tuple((c, v) for c, v in self.coeffs if c != name), self.const
        )
        return remaining + replacement * k

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename columns (used by the alias-bijection search)."""
        merged: dict[str, Fraction] = {}
        for c, v in self.coeffs:
            nc = mapping.get(c, c)
            merged[nc] = merged[nc] + v if nc in merged else v
        return _sorted_nonzero(merged, self.const)

    def __repr__(self) -> str:
        parts = [f"{v}*{c}" for c, v in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


# Comparison operators supported throughout the repo.
OPS = ("<", "<=", "=", "!=", ">=", ">")
_NEG = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}
_FLIP = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">=": "<=", ">": "<"}


@dataclass(frozen=True)
class Constraint:
    """Normalized comparison ``expr op 0``.

    Canonical form: the lexicographically-first column carries a positive
    coefficient (flipping the operator if a negation was needed), and the
    whole expression is scaled so that the leading coefficient is 1.
    Constant-only constraints are folded to a truth value by
    :meth:`truth`.
    """

    expr: LinExpr
    op: str  # one of OPS

    @staticmethod
    def make(lhs: LinExpr, op: str, rhs: LinExpr | Rational = 0) -> "Constraint":
        if op not in OPS:
            raise ValueError(f"bad op {op!r}")
        # Every LinExpr is already sorted and zero-free, so ``lhs - 0``
        # would only copy it.
        expr = lhs - rhs if isinstance(rhs, LinExpr) or rhs != 0 else lhs
        if expr.coeffs:
            lead = expr.coeffs[0][1]
            if lead < 0:
                op = _FLIP[op]
            if lead == -1:
                expr = -expr
            elif lead != 1:
                expr = expr * (1 / lead)
        return Constraint(expr, op)

    def negate(self) -> "Constraint":
        return Constraint(self.expr, _NEG[self.op])

    def truth(self) -> bool | None:
        """Truth value if constant, else None."""
        if self.expr.coeffs:
            return None
        c = self.expr.const
        return {
            "<": c < 0, "<=": c <= 0, "=": c == 0,
            "!=": c != 0, ">=": c >= 0, ">": c > 0,
        }[self.op]

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint.make(self.expr.rename(mapping), self.op)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.expr.columns

    def __repr__(self) -> str:
        return f"({self.expr} {self.op} 0)"


def columns_of(constraints: Iterable[Constraint]) -> list[str]:
    seen: dict[str, None] = {}
    for c in constraints:
        for name in c.columns:
            seen.setdefault(name)
    return list(seen)
