"""Result-caching case study tests (§7.7) on real Spark data."""
import pytest

from repro.spark_bridge.caching import (
    CachingReport,
    equivalence_classes,
    register_tpch_views,
    run_caching_study,
)
from repro.workload.labeler import make_planted_workload
from repro.workload.schema import TPCH_LITE


def test_equivalence_classes_union_find():
    classes = equivalence_classes(6, {(0, 1), (1, 2), (4, 5)})
    assert classes == [[0, 1, 2], [3], [4, 5]]


def test_equivalence_classes_no_pairs():
    assert equivalence_classes(3, set()) == [[0], [1], [2]]


def test_equivalence_classes_transitive_chain():
    classes = equivalence_classes(5, {(0, 4), (4, 2), (1, 3)})
    assert classes == [[0, 2, 4], [1, 3]]


@pytest.fixture(scope="module")
def tpch_views(spark):
    register_tpch_views(spark, sf=0.005)
    return spark


def test_registered_views_queryable(tpch_views):
    n = tpch_views.sql("SELECT count(*) AS c FROM lineitem").collect()[0].c
    assert n > 0
    cols = tpch_views.table("orders").columns
    assert cols == ["o_orderkey", "o_custkey", "o_totalprice"]


def test_caching_study_end_to_end(tpch_views, tmp_path):
    w = make_planted_workload(TPCH_LITE, n_subexpr=10, n_equiv=3, seed=8)
    classes = equivalence_classes(len(w.plans), w.planted)
    report = run_caching_study(
        tpch_views,
        w.plans,
        classes,
        budgets=(0.0, 1.0),
        cache_dir=str(tmp_path / "cache"),
    )
    assert isinstance(report, CachingReport)
    assert report.baseline_time > 0
    assert report.n_classes == 3
    # zero budget caches nothing → cached time equals the baseline
    # within measurement noise
    assert report.n_cached[0.0] == 0
    assert abs(report.cached_time[0.0] - report.baseline_time) / report.baseline_time < 0.5
    # full budget caches every beneficial class
    assert report.n_cached[1.0] >= 0
    assert report.storage_used[1.0] <= report.total_storage + 1e-9
    assert 0.0 <= report.storage_used[0.0] == 0.0
