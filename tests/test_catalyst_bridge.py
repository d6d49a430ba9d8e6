"""Catalyst → IR extraction tests, on real Spark analyzed plans.

The extracted IR is validated two ways: structurally (tables, preds,
projection) and semantically — the IR rendered back to SQL must produce
the same rows as Spark ran, checked through the DuckDB oracle.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.plan import base_tables, output_columns, predicates
from repro.core.sqlgen import to_sql
from repro.oracle import assert_equivalent
from repro.spark_bridge.catalyst import UnsupportedPlan, extract_spj, extract_spj_sql
from repro.verifier.av import verify


@pytest.fixture(scope="module")
def views(spark):
    g = np.random.default_rng(0)
    a = pd.DataFrame({
        "joinKey": g.integers(1, 20, 80).astype("float64"),
        "val": g.integers(-30, 60, 80).astype("float64"),
        "x": g.random(80),
    })
    b = pd.DataFrame({
        "joinKey": g.integers(1, 20, 60).astype("float64"),
        "val": g.integers(-30, 60, 60).astype("float64"),
        "y": g.random(60),
    })
    spark.createDataFrame(a).createOrReplaceTempView("A")
    spark.createDataFrame(b).createOrReplaceTempView("B")
    return {"a": a, "b": b}


def test_extract_single_table(spark, views):
    plan = extract_spj_sql(spark, "SELECT A.x FROM A WHERE A.val > 10")
    assert base_tables(plan) == ("a",)
    assert [c.key for c in output_columns(plan)] == ["a.x"]
    assert len(predicates(plan)) == 1


def test_extract_figure1_query(spark, views):
    sql = ("SELECT A.x, B.y FROM A, B WHERE A.joinKey = B.joinKey "
           "AND A.val > B.val + 10 AND B.val > 10")
    plan = extract_spj_sql(spark, sql)
    assert base_tables(plan) == ("a", "b")
    assert len(predicates(plan)) == 3


def test_extracted_plan_result_matches_spark(spark, views):
    """Semantic check via the oracle: run Spark on the original SQL,
    and the extracted IR's SQL on DuckDB — identical rows."""
    sql = ("SELECT A.x, B.y FROM A, B WHERE A.joinKey = B.joinKey "
           "AND A.val > B.val + 10 AND B.val > 10")
    df = spark.sql(sql).select(
        spark.sql(sql).columns[0], spark.sql(sql).columns[1]
    ).toDF("p0", "p1")
    plan = extract_spj_sql(spark, sql)
    assert_equivalent(df, to_sql(plan), a=views["a"], b=views["b"])


def test_extract_explicit_join_syntax(spark, views):
    sql = ("SELECT A.x, B.y FROM A JOIN B ON A.joinKey = B.joinKey "
           "WHERE A.val >= 5")
    plan = extract_spj_sql(spark, sql)
    assert base_tables(plan) == ("a", "b")
    assert len(predicates(plan)) == 2


def test_extracted_equivalence_detected_by_av(spark, views):
    """Two syntactically different Spark queries whose extracted IRs the
    AV proves equivalent — the Figure 1 story on actual Catalyst plans."""
    q1 = extract_spj_sql(spark, (
        "SELECT A.x, B.y FROM A, B WHERE A.joinKey = B.joinKey "
        "AND A.val > B.val + 10 AND B.val > 10"))
    q2 = extract_spj_sql(spark, (
        "SELECT A.x, B.y FROM B, A WHERE B.joinKey = A.joinKey "
        "AND B.val + 10 < A.val AND B.val + 10 > 20 AND A.val > 20"))
    assert verify(q1, q2)


def test_extract_nonequivalent_pair(spark, views):
    q1 = extract_spj_sql(spark, "SELECT A.x FROM A WHERE A.val > 10")
    q2 = extract_spj_sql(spark, "SELECT A.x FROM A WHERE A.val > 20")
    assert verify(q1, q2) is False


def test_disequality_predicate(spark, views):
    plan = extract_spj_sql(spark, "SELECT A.x FROM A WHERE A.val <> 7")
    assert predicates(plan)[0].op == "!="


def test_unsupported_aggregate_rejected(spark, views):
    with pytest.raises(UnsupportedPlan):
        extract_spj_sql(spark, "SELECT COUNT(*) AS c FROM A")


def test_unsupported_outer_join_rejected(spark, views):
    with pytest.raises(UnsupportedPlan):
        extract_spj_sql(
            spark,
            "SELECT A.x, B.y FROM A LEFT JOIN B ON A.joinKey = B.joinKey",
        )


def test_unsupported_string_literal_rejected(spark, views):
    with pytest.raises(UnsupportedPlan):
        extract_spj_sql(spark, "SELECT A.x FROM A WHERE A.val > 1 AND 'a' = 'a'")


def test_dataframe_api_extraction(spark, views):
    df = (
        spark.table("A")
        .filter("val > 3")
        .select("x", "val")
    )
    plan = extract_spj(df)
    assert base_tables(plan) == ("a",)
    assert [c.key for c in output_columns(plan)] == ["a.x", "a.val"]
