"""Unit tests for exact linear expressions and constraint canonicalization."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.solver.linexpr import Constraint, LinExpr


def test_zero_coeffs_dropped():
    e = LinExpr.of({"x": 1, "y": 0}, 3)
    assert e.columns == ("x",)
    assert e.coeff("y") == 0


def test_add_sub_cancel():
    x, y = LinExpr.col("x"), LinExpr.col("y")
    assert (x + y - x) == y
    assert (x - x).columns == ()


def test_scalar_multiply():
    e = LinExpr.of({"x": 2}, 4) * Fraction(1, 2)
    assert e == LinExpr.of({"x": 1}, 2)
    assert (e * 0) == LinExpr.lit(0)


def test_substitute():
    # x + 2y with x := y + 1  →  3y + 1
    e = LinExpr.of({"x": 1, "y": 2})
    assert e.substitute("x", LinExpr.of({"y": 1}, 1)) == LinExpr.of({"y": 3}, 1)


def test_substitute_absent_is_noop():
    e = LinExpr.of({"x": 1})
    assert e.substitute("z", LinExpr.lit(5)) is e


def test_rename_merges():
    e = LinExpr.of({"a": 1, "b": 2})
    assert e.rename({"a": "b"}) == LinExpr.of({"b": 3})


def test_constraint_canonical_leading_positive():
    # -x + 5 > 0 canonicalizes to x - 5 < 0
    c = Constraint.make(LinExpr.of({"x": -1}, 5), ">")
    assert c.expr.coeff("x") == 1
    assert c.op == "<"


def test_constraint_scaling():
    # 2x - 10 >= 0 and x - 5 >= 0 are the same canonical constraint
    a = Constraint.make(LinExpr.of({"x": 2}, -10), ">=")
    b = Constraint.make(LinExpr.of({"x": 1}, -5), ">=")
    assert a == b


def test_constraint_both_sides():
    # x > y + 3  ≡  x - y - 3 > 0
    c = Constraint.make(LinExpr.col("x"), ">", LinExpr.of({"y": 1}, 3))
    assert c == Constraint.make(LinExpr.of({"x": 1, "y": -1}, -3), ">")


def test_negate_involution():
    c = Constraint.make(LinExpr.of({"x": 1}, -2), "<=")
    assert c.negate().negate() == c


def test_truth_constant():
    assert Constraint.make(LinExpr.lit(1), ">").truth() is True
    assert Constraint.make(LinExpr.lit(1), "<").truth() is False
    assert Constraint.make(LinExpr.col("x"), ">").truth() is None


def test_truth_all_ops():
    zero = LinExpr.lit(0)
    assert Constraint.make(zero, "=").truth() is True
    assert Constraint.make(zero, "!=").truth() is False
    assert Constraint.make(zero, ">=").truth() is True
    assert Constraint.make(zero, "<=").truth() is True


def test_columns_of_ordered_dedup():
    c = Constraint.make(LinExpr.of({"b": 1, "a": 1}), ">", LinExpr.of({"a": -1, "c": 1}))
    assert c.columns == ("a", "b", "c")


def test_bad_op_rejected():
    with pytest.raises(ValueError):
        Constraint.make(LinExpr.col("x"), "==")


_rat = st.fractions(min_value=-50, max_value=50, max_denominator=7)
_expr = st.builds(
    lambda c1, c2, k: LinExpr.of({"x": c1, "y": c2}, k), _rat, _rat, _rat
)


@given(_expr, _expr)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(_expr)
def test_neg_is_additive_inverse(a):
    assert (a + (-a)) == LinExpr.lit(0)


@given(_expr, _rat)
def test_canonical_invariant_under_positive_scaling(e, k):
    if k <= 0 or not e.coeffs:
        return
    assert Constraint.make(e, ">") == Constraint.make(e * k, ">")
