"""Edge cases of LinExpr's one-time value normalization."""
from fractions import Fraction

from repro.solver.linexpr import Constraint, LinExpr, _frac, exact


def test_frac_int_is_exact():
    for n in (0, 7, -3, 10**12 + 1, 2**80):
        f = _frac(n)
        assert type(f) is Fraction
        assert (f.numerator, f.denominator) == (n, 1)


def test_exact_keeps_integral_values_int():
    assert type(exact(3.0)) is int and exact(3.0) == 3
    assert type(exact(-0.0)) is int and exact(-0.0) == 0
    assert exact(7) == 7 and type(exact(7)) is int
    assert exact(0.1) == Fraction(1, 10)
    assert exact(1 / 3) == Fraction(1, 3)


def test_frac_float_still_limits_denominator():
    assert _frac(0.1) == Fraction(1, 10)
    assert _frac(2.0) == Fraction(2)
    k = Fraction(1, 3)
    assert _frac(k) is k


def test_of_drops_every_zero_spelling():
    e = LinExpr.of({"x": 0, "y": 0.0, "z": Fraction(0), "w": 2}, 0.0)
    assert e.coeffs == (("w", Fraction(2)),)
    assert type(e.const) is Fraction and e.const == 0
    assert LinExpr.of({"x": 0}) == LinExpr.lit(0)


def _normalized(e: LinExpr) -> bool:
    names = [c for c, _ in e.coeffs]
    return names == sorted(names) and all(
        type(v) is Fraction and v != 0 for _, v in e.coeffs
    )


def test_add_sub_sorted_and_zero_free():
    a = LinExpr.of({"d": 2, "b": 1}, 1)
    b = LinExpr.of({"c": 1, "a": 3, "b": -1}, Fraction(1, 2))
    s = a + b  # b cancels
    assert s.coeffs == (("a", 3), ("c", 1), ("d", 2))
    assert s.const == Fraction(3, 2)
    assert _normalized(s)
    d = a - LinExpr.of({"d": 2, "e": 1})  # d cancels
    assert d.coeffs == (("b", 1), ("e", -1))
    assert _normalized(d)
    assert (a - a) == LinExpr.lit(0) and (a + 1).coeffs == a.coeffs


def test_rename_sorted_and_zero_free():
    e = LinExpr.of({"a": 1, "b": -1, "c": 2}).rename({"a": "z", "b": "z"})
    assert e.coeffs == (("c", 2),)
    assert _normalized(e)


def test_make_lead_one_keeps_expr():
    e = LinExpr.of({"x": 1, "y": Fraction(2, 3)}, 5)
    c = Constraint.make(e, "<")
    assert c.expr == e and c.op == "<"
    assert repr(c) == "(1*x + 2/3*y + 5 < 0)"


def test_make_lead_negative_fraction_rescales_and_flips():
    e = LinExpr.of({"x": Fraction(-3, 2), "y": 1}, 3)
    c = Constraint.make(e, ">")
    assert c.op == "<"
    assert c.expr == LinExpr.of({"x": 1, "y": Fraction(-2, 3)}, -2)
    assert repr(c) == "(1*x + -2/3*y + -2 < 0)"
    assert c == Constraint.make(e * 2, ">")
