"""Tests for the automated verifier (AV) — the SPES substitute.

The headline case is Figure 1 from the paper: two syntactically
different subexpressions that the AV must prove equivalent. Soundness
is cross-validated against the randomized DuckDB model checker.
"""
import itertools

import pytest

from repro.core.pipeline import geqo_set_local
from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Project,
    Scan,
)
from repro.core.record import PlanRecord, flatten
from repro.verifier.av import Verifier, verify
from repro.verifier.model_check import counterexample
from tests.test_plan import fig1_q1, fig1_q2, one_table_same_filter, two_tables_one_alias


def test_flatten_shape():
    f = flatten(PlanRecord(fig1_q1()))
    assert f.aliases == (("A", "A"), ("B", "B"))
    assert len(f.constraints) == 3
    assert f.projection == ("A.x", "B.y")


def test_flatten_dedups_constraints():
    base = Join(
        Scan("A", "A"), Scan("B", "B"),
        Comparison(Col("A", "k"), "=", Col("B", "k")),
    )
    p = Project(
        (Col("A", "k"),),
        Filter(Comparison(Col("A", "v"), ">", Const(1.0)),
               Filter(Comparison(Col("A", "v"), ">", Const(1.0)), base)),
    )
    assert len(flatten(PlanRecord(p)).constraints) == 2


def test_figure1_equivalent():
    assert verify(fig1_q1(), fig1_q2())


def test_figure1_model_check_agrees():
    assert counterexample(fig1_q1(), fig1_q2(), trials=6) is None


def test_self_equivalence():
    assert verify(fig1_q1(), fig1_q1())


def test_different_constant_not_equivalent():
    q1 = fig1_q1()
    q2 = Project(
        q1.cols,
        Filter(Comparison(Col("B", "val"), ">", Const(11.0)), q1.child.child),
    )
    assert verify(q1, q2) is False
    assert counterexample(q1, q2, trials=10, rows=60) is not None


def test_different_projection_not_equivalent():
    q1 = fig1_q1()
    q2 = Project((Col("A", "x"), Col("A", "val")), q1.child)
    assert verify(q1, q2) is False


def test_projection_arity_mismatch():
    q1 = fig1_q1()
    q2 = Project((Col("A", "x"),), q1.child)
    assert verify(q1, q2) is False


def test_different_tables_not_equivalent():
    q1 = fig1_q1()
    q2 = Project(
        (Col("A", "x"), Col("C", "y")),
        Join(Scan("A", "A"), Scan("C", "C"),
             Comparison(Col("A", "joinKey"), "=", Col("C", "joinKey"))),
    )
    assert verify(q1, q2) is False


def test_alias_renaming_is_equivalent():
    from repro.core.plan import rename_aliases

    q1 = fig1_q1()
    q2 = rename_aliases(fig1_q2(), {"A": "x1", "B": "x2"})
    assert verify(q1, q2)


def test_projection_equal_modulo_join_equality():
    """Projecting A.k vs B.k is equivalent when A.k = B.k is a join pred."""
    def mk(side):
        join = Join(Scan("A", "A"), Scan("B", "B"),
                    Comparison(Col("A", "k"), "=", Col("B", "k")))
        return Project((Col(side, "k"),), join)

    assert verify(mk("A"), mk("B"))
    assert counterexample(mk("A"), mk("B")) is None


def test_projection_order_matters():
    join = Join(Scan("A", "A"), Scan("B", "B"),
                Comparison(Col("A", "k"), "=", Col("B", "k")))
    q1 = Project((Col("A", "u"), Col("B", "w")), join)
    q2 = Project((Col("B", "w"), Col("A", "u")), join)
    assert verify(q1, q2) is False


def test_vacuously_empty_plans_equivalent():
    def empty(op_pair):
        lo, hi = op_pair
        s = Scan("A", "A")
        f = Filter(Comparison(Col("A", "v"), lo, Const(5.0)),
                   Filter(Comparison(Col("A", "v"), hi, Const(5.0)), s))
        return Project((Col("A", "v"),), f)

    # v > 5 and v < 5 vs v > 5 and v < 5 written differently: both empty
    q1 = empty((">", "<"))
    s = Scan("A", "A")
    q2 = Project(
        (Col("A", "v"),),
        Filter(Comparison(Col("A", "v"), ">", Const(9.0)),
               Filter(Comparison(Col("A", "v"), "<", Const(9.0)), s)),
    )
    assert verify(q1, q2)
    assert counterexample(q1, q2) is None


def test_self_join_bijection_search():
    """Two A-A self-joins that differ only in alias roles."""
    def mk(flip):
        l, r = Scan("A", "a1"), Scan("A", "a2")
        pred = Comparison(Col("a1", "k"), "=", Col("a2", "ref"))
        f = Filter(Comparison(Col("a1", "v"), ">", Const(3.0)), Join(l, r, pred))
        q = Project((Col("a1", "k"),), f)
        if flip:
            q = Project(
                (Col("a2", "k"),),
                Filter(Comparison(Col("a2", "v"), ">", Const(3.0)),
                       Join(Scan("A", "a1"), Scan("A", "a2"),
                            Comparison(Col("a2", "k"), "=", Col("a1", "ref")))),
            )
        return q

    assert verify(mk(False), mk(True))


def test_verifier_counts_work():
    v = Verifier()
    v.equivalent(PlanRecord(fig1_q1()), PlanRecord(fig1_q2()))
    assert v.solver_calls > 0


def test_non_inner_join_rejected_conservatively():
    q1 = Project(
        (Col("A", "k"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k")), "left"),
    )
    assert verify(q1, q1_inner := Project(
        (Col("A", "k"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k"))),
    )) is None


def _left_join():
    """Outside the SPJ fragment: a left join."""
    return Project(
        (Col("A", "k"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "k"), "=", Col("B", "k")), "left"),
    )


def _disequalities():
    """13 ``!=`` filters, one more than FM splits."""
    q = Scan("A", "A")
    for k in range(13):
        q = Filter(Comparison(Col("A", "x"), "!=", Const(float(k))), q)
    return Project((Col("A", "x"),), q)


def _self_join_chain(n: int = 8):
    """``n`` aliases of one table: n! bijections, over the search budget
    from 8 on."""
    q = Scan("A", "a0")
    for k in range(1, n):
        q = Join(q, Scan("A", f"a{k}"),
                 Comparison(Col(f"a{k - 1}", "k"), "=", Col(f"a{k}", "k")))
    return Project((Col("a0", "k"),), q)


@pytest.mark.parametrize("make, solver_calls", [
    (_left_join, 0),  # outside the fragment: no flat form
    (two_tables_one_alias, 0),  # likewise
    (_disequalities, 1),  # FM gives up on the first satisfiability check
    (_self_join_chain, 1),  # the first plan is satisfiable, then the budget
])
def test_unknown_verdict_is_none(make, solver_calls):
    """A check the AV can neither prove nor refute answers None, and
    its solver work is still counted."""
    v = Verifier()
    assert v.equivalent(PlanRecord(make()), PlanRecord(make())) is None
    assert v.solver_calls == solver_calls


@pytest.mark.parametrize(
    "make", [_left_join, _disequalities, _self_join_chain, two_tables_one_alias]
)
def test_unknown_pair_is_counted_not_reported(make):
    plans = [make(), fig1_q1(), make(), fig1_q2()]
    res = geqo_set_local(plans, None, filters=("SF",))
    assert res.pairs == {(1, 3)}
    assert res.av_unknown == 1 and res.av_pairs_checked == 2


def test_solver_error_is_not_kept_as_a_verdict():
    """FM gives up on each of these plans: every pair that decides one's
    satisfiability asks FM again and is unknown."""
    v = Verifier()
    res = geqo_set_local([_disequalities() for _ in range(4)], None, filters=("SF",), verifier=v)
    assert res.av_pairs_checked == res.av_unknown == 6 and not res.pairs
    assert v.solver_calls == 6


def test_two_tables_under_one_alias_are_not_proved():
    """The join scans two tables as ``a``; the filter plan scans one.
    Their SF keys differ, so no pair of them is equivalent, yet their
    flat forms would read alike."""
    plans = [two_tables_one_alias(), one_table_same_filter()]
    assert verify(*plans) is None
    res = geqo_set_local(plans, None, filters=())
    assert res.pairs == set() and res.av_unknown == 1


def test_bijection_budget_counted_before_any_permutation(monkeypatch):
    """A 10-alias chain (3.6 M bijections) answers None without building
    one permutation; within the budget the search still runs."""
    built = []
    real = itertools.permutations
    monkeypatch.setattr(itertools, "permutations", lambda xs: built.append(1) or real(xs))
    assert verify(_self_join_chain(10), _self_join_chain(10)) is None
    assert not built
    assert verify(_self_join_chain(4), _self_join_chain(4)) is True
    assert built
