"""Tests for the Fourier–Motzkin decision procedure (the Z3 substitute).

Includes a randomized differential test against float sampling: if a
random point satisfies a system, the solver must agree it is sat.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.fm import SolverError, implies, satisfiable
from repro.solver.linexpr import OPS, Constraint, LinExpr


def _mutually_implying(a, b) -> bool:
    """Each conjunction implies every constraint of the other."""
    return all(implies(a, c) for c in b) and all(implies(b, c) for c in a)

def C(coeffs, op, const=0):
    return Constraint.make(LinExpr.of(coeffs, const), op)


def test_empty_is_sat():
    assert satisfiable([])


def test_single_always_sat():
    assert satisfiable([C({"x": 1}, ">", -5)])


def test_contradiction_one_var():
    assert not satisfiable([C({"x": 1}, ">"), C({"x": 1}, "<")])


def test_strict_vs_nonstrict_boundary():
    # x >= 5 and x <= 5 sat (x=5); x > 5 and x <= 5 unsat
    assert satisfiable([C({"x": 1}, ">=", -5), C({"x": 1}, "<=", -5)])
    assert not satisfiable([C({"x": 1}, ">", -5), C({"x": 1}, "<=", -5)])


def test_transitive_chain_unsat():
    # x > y, y > z, z > x
    assert not satisfiable(
        [C({"x": 1, "y": -1}, ">"), C({"y": 1, "z": -1}, ">"), C({"z": 1, "x": -1}, ">")]
    )


def test_equalities_substituted():
    # x = y, y = 3, x > 4 → unsat;  x > 2 → sat
    eqs = [C({"x": 1, "y": -1}, "="), C({"y": 1}, "=", -3)]
    assert not satisfiable(eqs + [C({"x": 1}, ">", -4)])
    assert satisfiable(eqs + [C({"x": 1}, ">", -2)])


def test_disequality_carves_point():
    # x >= 0, x <= 0, x != 0 → unsat
    assert not satisfiable(
        [C({"x": 1}, ">="), C({"x": 1}, "<="), C({"x": 1}, "!=")]
    )


def test_disequality_on_interval_sat():
    assert satisfiable([C({"x": 1}, ">="), C({"x": 1}, "<=", -1), C({"x": 1}, "!=")])


def test_disequality_between_vars():
    # x = y, x != y → unsat
    assert not satisfiable(
        [C({"x": 1, "y": -1}, "="), C({"x": 1, "y": -1}, "!=")]
    )


def test_figure1_predicates():
    """The Figure 1 example: the two predicate sets are equivalent.

    q1: A.val > B.val + 10  ∧  B.val > 10
    q2: B.val + 10 < A.val  ∧  B.val + 10 > 20  ∧  A.val > 20
    """
    a, b = "A.val", "B.val"
    p1 = [C({a: 1, b: -1}, ">", -10), C({b: 1}, ">", -10)]
    p2 = [
        C({a: 1, b: -1}, ">", -10),
        C({b: 1}, ">", -10),  # B.val + 10 > 20
        C({a: 1}, ">", -20),
    ]
    assert _mutually_implying(p1, p2)


def test_nonequivalent_sets():
    p1 = [C({"x": 1}, ">", -10)]
    p2 = [C({"x": 1}, ">", -20)]
    assert not _mutually_implying(p1, p2)
    assert implies(p2, p1[0])
    assert not implies(p1, p2[0])


def test_implies_derived_sum():
    # x > 3 and y > 4 imply x + y > 7
    assert implies(
        [C({"x": 1}, ">", -3), C({"y": 1}, ">", -4)], C({"x": 1, "y": 1}, ">", -7)
    )


def test_implies_transitive_through_expression():
    # A - B > 10 and B > 10 imply A > 20
    assert implies(
        [C({"A": 1, "B": -1}, ">", -10), C({"B": 1}, ">", -10)],
        C({"A": 1}, ">", -20),
    )


def test_unsat_premises_imply_anything():
    bad = [C({"x": 1}, ">"), C({"x": 1}, "<")]
    assert implies(bad, C({"y": 1}, "=", -99))


def test_many_vars_polytope():
    # A 5-var feasible chain x1 < x2 < ... < x5, x1 > 0, x5 < 1
    chain = [C({f"x{i}": 1, f"x{i+1}": -1}, "<") for i in range(1, 5)]
    chain += [C({"x1": 1}, ">"), C({"x5": 1}, "<", -1)]
    assert satisfiable(chain)
    assert not satisfiable(chain + [C({"x3": 1}, ">", -1)])


_coef = st.integers(min_value=-4, max_value=4)
_sys = st.lists(
    st.builds(
        lambda a, b, c, k, op: C({"x": a, "y": b, "z": c}, op, k),
        _coef, _coef, _coef, _coef, st.sampled_from(["<", "<=", ">=", ">", "="]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_sys, st.integers(0, 10**6))
def test_sampled_model_implies_sat(cs, seed):
    """Soundness direction: a concrete satisfying point ⇒ solver says sat."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-10, 10, size=(200, 3))
    found = False
    for x, y, z in pts:
        vals = {"x": x, "y": y, "z": z}
        ok = True
        for c in cs:
            v = float(sum(float(k) * vals[n] for n, k in c.expr.coeffs) + float(c.expr.const))
            ok &= {
                "<": v < -1e-9, "<=": v <= 1e-9, "=": abs(v) <= 1e-9,
                "!=": abs(v) > 1e-9, ">=": v >= -1e-9, ">": v > 1e-9,
            }[c.op]
            if not ok:
                break
        if ok:
            found = True
            break
    if found:
        assert satisfiable(cs)


@settings(max_examples=40, deadline=None)
@given(_sys)
def test_implication_reflexive(cs):
    for c in cs:
        assert implies(cs, c)


@settings(max_examples=40, deadline=None)
@given(_sys)
def test_equivalence_reflexive_and_order_free(cs):
    assert _mutually_implying(cs, list(reversed(cs)))


_any_sys = st.lists(
    st.builds(
        lambda a, b, k, op: C({"x": a, "y": b}, op, k),
        _coef, _coef, _coef, st.sampled_from(OPS),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(_any_sys, st.data())
def test_implies_is_unsat_negation(cs, data):
    """``implies`` agrees with FM on ``premises ∧ ¬c``, also when ``c``
    is one of the premises and FM does not run, or a premise's
    expression under another operator."""
    c = data.draw(st.one_of(
        st.sampled_from(cs),
        st.builds(lambda p, op: Constraint(p.expr, op), st.sampled_from(cs), st.sampled_from(OPS)),
        _any_sys.map(lambda s: s[0]),
    ))
    assert implies(cs, c) == (not satisfiable(cs + [c.negate()]))


def test_premise_conclusion_needs_no_disequality_split():
    """A conclusion among the premises is implied even where FM would
    have to split more disequalities than it may."""
    cs = [C({"x": 1}, ">")] + [C({f"y{k}": 1}, "!=") for k in range(13)]
    with pytest.raises(SolverError):
        satisfiable(cs + [cs[0].negate()])
    assert implies(cs, cs[0])
