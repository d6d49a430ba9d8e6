"""SQL generation and subexpression enumeration tests."""
import duckdb
import pandas as pd
import pytest

from repro.core.plan import (
    Col,
    Comparison,
    Join,
    Project,
    Scan,
    base_tables,
    output_columns,
)
from repro.core.sqlgen import to_sql
from repro.core.subexpr import as_executable, enumerate_subexpressions, referenced_columns
from tests.test_plan import fig1_q1, fig1_q2


def _run(sql, **tables):
    con = duckdb.connect()
    try:
        for name, df in tables.items():
            con.register(name, df)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _ab_instance():
    a = pd.DataFrame({"joinKey": [1.0, 2, 3], "val": [25.0, 12, 40],
                      "x": [1.0, 2, 3]})
    b = pd.DataFrame({"joinKey": [1.0, 2, 3], "val": [11.0, 30, 15],
                      "y": [10.0, 20, 30]})
    return {"A": a, "B": b}


def test_sql_positional_aliases():
    sql = to_sql(fig1_q1())
    assert "AS p0" in sql and "AS p1" in sql
    assert sql.startswith("SELECT ")


def test_fig1_queries_same_result_on_duckdb():
    inst = _ab_instance()
    r1 = _run(to_sql(fig1_q1()), **inst)
    r2 = _run(to_sql(fig1_q2()), **inst)
    pd.testing.assert_frame_equal(
        r1.sort_values(list(r1.columns)).reset_index(drop=True),
        r2.sort_values(list(r2.columns)).reset_index(drop=True),
    )
    # sanity: the predicate actually selects something on this instance
    assert len(r1) > 0


def test_sql_no_predicates():
    q = Project((Col("A", "x"),), Scan("A", "A"))
    sql = to_sql(q)
    assert "WHERE" not in sql
    assert len(_run(sql, A=_ab_instance()["A"])) == 3


def test_sql_rejects_bare_subtree():
    with pytest.raises(ValueError):
        to_sql(Scan("A", "A"))


def test_sql_rejects_outer_join():
    q = Project(
        (Col("A", "x"),),
        Join(Scan("A", "A"), Scan("B", "B"),
             Comparison(Col("A", "joinKey"), "=", Col("B", "joinKey")), "left"),
    )
    with pytest.raises(ValueError):
        to_sql(q)


def test_referenced_columns_sorted_dedup():
    cols = referenced_columns(fig1_q1())
    assert [c.key for c in cols] == ["A.joinKey", "A.val", "A.x", "B.joinKey", "B.val", "B.y"]


def test_as_executable_wraps_bare():
    sub = fig1_q1().child  # top Filter — bare subtree
    wrapped = as_executable(sub)
    assert isinstance(wrapped, Project)
    # wrapped is executable on DuckDB
    assert _run(to_sql(wrapped), **_ab_instance()) is not None


def test_enumerate_subexpressions():
    subs = enumerate_subexpressions(fig1_q1())
    # Project, 2 Filters, Join → 4 distinct executable subexpressions
    assert len(subs) == 4
    for s in subs:
        assert isinstance(s, Project)
        assert base_tables(s) in (("A", "B"),)
        _run(to_sql(s), **_ab_instance())


def test_enumerate_includes_root():
    subs = enumerate_subexpressions(fig1_q2())
    assert any(
        [c.key for c in output_columns(s)] == ["A.x", "B.y"] for s in subs
    )
