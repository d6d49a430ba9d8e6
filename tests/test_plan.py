"""Unit tests for the SPJ plan IR."""
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.plan import (
    BinOp,
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Project,
    Scan,
    alias_map,
    base_tables,
    bfs,
    compose,
    decompose,
    output_columns,
    predicates,
    rename_aliases,
    to_json,
)
from repro.solver.linexpr import OPS, Constraint, LinExpr


def fig1_q1(jointype: str = "inner"):
    """The highlighted subexpression of Figure 1, Q1; another
    ``jointype`` takes it outside the SPJ fragment."""
    a, b = Scan("A", "A"), Scan("B", "B")
    join = Join(a, b, Comparison(Col("A", "joinKey"), "=", Col("B", "joinKey")), jointype)
    f1 = Filter(
        Comparison(Col("A", "val"), ">", BinOp("+", Col("B", "val"), Const(10.0))),
        join,
    )
    f2 = Filter(Comparison(Col("B", "val"), ">", Const(10.0)), f1)
    return Project((Col("A", "x"), Col("B", "y")), f2)


def fig1_q2():
    """Figure 1, Q2: same semantics, different syntax."""
    b, a = Scan("B", "B"), Scan("A", "A")
    join = Join(b, a, Comparison(Col("B", "joinKey"), "=", Col("A", "joinKey")))
    f1 = Filter(
        Comparison(BinOp("+", Col("B", "val"), Const(10.0)), "<", Col("A", "val")),
        join,
    )
    f2 = Filter(
        Comparison(BinOp("+", Col("B", "val"), Const(10.0)), ">", Const(20.0)), f1
    )
    f3 = Filter(Comparison(Col("A", "val"), ">", Const(20.0)), f2)
    return Project((Col("A", "x"), Col("B", "y")), f3)


def test_bfs_order_and_count():
    q = fig1_q1()
    kinds = [type(n).__name__ for n in bfs(q)]
    assert kinds == ["Project", "Filter", "Filter", "Join", "Scan", "Scan"]
    assert len(list(bfs(q))) == 6


def test_base_tables_sorted_multiset():
    assert base_tables(fig1_q1()) == ("A", "B")
    assert base_tables(fig1_q2()) == ("A", "B")


def test_alias_map():
    assert alias_map(fig1_q1()) == {"A": "A", "B": "B"}


def test_predicates_collected():
    assert len(predicates(fig1_q1())) == 3
    assert len(predicates(fig1_q2())) == 4


def test_output_columns_positional():
    assert [c.key for c in output_columns(fig1_q1())] == ["A.x", "B.y"]


def _lowered(e) -> Constraint:
    """``e = 0`` through the lowering the system uses."""
    return Comparison(e, "=", Const(0.0)).to_constraint()


def test_expr_to_linexpr_nested():
    e = BinOp("-", BinOp("+", Col("A", "v"), Const(3.0)), BinOp("*", Const(2.0), Col("B", "w")))
    assert _lowered(e) == Constraint.make(LinExpr.of({"A.v": 1, "B.w": -2}, 3), "=")


def test_expr_to_linexpr_rejects_nonlinear():
    with pytest.raises(ValueError):
        _lowered(BinOp("*", Col("A", "v"), Col("B", "w")))


def test_expr_to_linexpr_cancelled_factor_is_constant():
    # (v - v + 2) * w is linear: the left factor is the constant 2
    x, w = Col("A", "v"), Col("B", "w")
    e = BinOp("*", BinOp("+", BinOp("-", x, x), Const(2.0)), w)
    assert _lowered(e) == Constraint.make(LinExpr.of({"B.w": 2}), "=")
    assert _lowered(BinOp("*", w, BinOp("-", x, x))) == Constraint.make(LinExpr.lit(0), "=")


# Reference lowering, one LinExpr per AST node: the form the single-pass
# lowering in ``repro.core.plan`` must match exactly.
def _reference(e):
    if isinstance(e, Col):
        return LinExpr.col(e.key)
    if isinstance(e, Const):
        return LinExpr.lit(Fraction(e.value).limit_denominator(10**9))
    l, r = _reference(e.left), _reference(e.right)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    if not l.columns:
        return r * l.const
    if not r.columns:
        return l * r.const
    raise ValueError(f"non-linear product: {e}")


_consts = st.one_of(
    st.integers(-40, 40).map(Const),
    st.integers(-40, 40).map(lambda n: Const(float(n))),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False).map(Const),
)
_leaves = st.one_of(
    st.sampled_from([Col("A", "v"), Col("A", "x"), Col("B", "v"), Col("B", "w")]),
    _consts,
)


def _linear(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+-"), children, children),
        st.builds(lambda k, e: BinOp("*", k, e), _consts, children),
        st.builds(lambda e, k: BinOp("*", e, k), children, _consts),
    )


_surface = st.recursive(_leaves, _linear, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(_surface, st.sampled_from(OPS), _surface)
def test_lowering_matches_reference(lhs, op, rhs):
    want = Constraint.make(_reference(lhs), op, _reference(rhs))
    got = Comparison(lhs, op, rhs).to_constraint()
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(_surface, _surface, st.sampled_from(OPS), _surface)
def test_lowering_rejects_nonlinear_product(a, b, op, rhs):
    # C.z and D.z occur nowhere else, so neither factor can cancel out
    prod = BinOp("*", BinOp("+", Col("C", "z"), a), BinOp("-", b, Col("D", "z")))
    with pytest.raises(ValueError):
        Comparison(prod, op, rhs).to_constraint()
    with pytest.raises(ValueError):
        Comparison(rhs, op, BinOp("+", Const(1.0), prod)).to_constraint()
    with pytest.raises(ValueError):
        _reference(prod)


def test_comparison_rejects_bad_op():
    with pytest.raises(ValueError):
        Comparison(Col("A", "v"), "==", Const(1.0))


def test_join_rejects_bad_type():
    with pytest.raises(ValueError):
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k")), "outer")


def test_pickle_roundtrip():
    """The Spark executor ships plans to its workers by pickling them."""
    for q in (fig1_q1(), fig1_q2()):
        back = pickle.loads(pickle.dumps(q))
        assert back == q and to_json(back) == to_json(q)


def test_json_roundtrip_preserves_surface_form():
    q1, q2 = fig1_q1(), fig1_q2()
    # surface forms differ even though they are semantically equivalent
    assert to_json(q1) != to_json(q2)


def test_rename_aliases():
    q = fig1_q1()
    r = rename_aliases(q, {"A": "t1", "B": "t2"})
    assert base_tables(r) == ("A", "B")  # base tables unchanged
    assert alias_map(r) == {"t1": "A", "t2": "B"}
    assert [c.key for c in output_columns(r)] == ["t1.x", "t2.y"]


def test_decompose_reads_the_spj_form():
    aliases, jps, fps, proj = decompose(fig1_q1())
    assert aliases == {"A": "A", "B": "B"}
    assert [repr(p) for p in jps] == ["A.joinKey = B.joinKey"]
    assert [repr(p) for p in fps] == ["B.val > 10.0", "A.val > (B.val + 10.0)"]
    assert proj == (Col("A", "x"), Col("B", "y"))
    # compose stacks filters in list order: the last is on top, read first
    assert decompose(compose(aliases, jps, fps[::-1], proj)) == (aliases, jps, fps, proj)


@pytest.mark.parametrize("jointype", ["left", "semi"])
def test_decompose_refuses_non_inner_joins(jointype):
    with pytest.raises(ValueError, match=jointype):
        decompose(fig1_q1(jointype))


def test_decompose_refuses_a_plan_without_root_project():
    with pytest.raises(ValueError):
        decompose(fig1_q1().child)


_SAME_ALIAS_PRED = Comparison(Col("a", "ss_item_sk"), "=", Col("a", "ss_sold_date_sk"))


def two_tables_one_alias():
    """``store_sales`` and ``item`` both scanned as ``a``: no alias map
    describes it, and ``to_sql`` would render it as a one-table query."""
    return Project(
        (Col("a", "ss_item_sk"),),
        Join(Scan("store_sales", "a"), Scan("item", "a"), _SAME_ALIAS_PRED),
    )


def one_table_same_filter():
    """The same predicate as a filter over ``Scan(item, a)`` alone."""
    return Project((Col("a", "ss_item_sk"),), Filter(_SAME_ALIAS_PRED, Scan("item", "a")))


def test_decompose_refuses_two_tables_under_one_alias():
    with pytest.raises(ValueError, match="'a'"):
        decompose(two_tables_one_alias())
    assert decompose(one_table_same_filter())[0] == {"a": "item"}
