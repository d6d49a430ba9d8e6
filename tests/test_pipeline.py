"""End-to-end GEqO cascade tests (Equation 1/2 semantics)."""
import pytest

from repro.core.pipeline import geqo_set_local, geqo_set_spark
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import calibrate_tau
from repro.solver.fm import SolverError
from repro.verifier.av import Verifier
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCDS_LITE


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCDS_LITE, n_subexpr=50, n_equiv=6, seed=17)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCDS_LITE, 60, seed=18)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


def test_local_pipeline_finds_planted(emf_model, tau, workload):
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    found = workload.planted & res.pairs
    # near-perfect recall (paper: GEqO TPR ≈ 0.88–0.93)
    assert len(found) >= len(workload.planted) - 1
    # perfect precision by construction: every reported pair is AV-verified
    v = Verifier()
    for i, j in res.pairs:
        assert v.equivalent(workload.plans[i], workload.plans[j])


def test_pipeline_prunes_monotonically(emf_model, tau, workload):
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    assert res.survivors["SF"] <= res.n_total_pairs
    assert res.survivors["VMF"] <= res.survivors["SF"]
    assert res.survivors["EMF"] <= res.survivors["VMF"]
    assert res.survivors["AV"] <= res.survivors["EMF"]
    # the filters must prune hard: AV workload ≪ total pairs
    assert res.av_pairs_checked < res.n_total_pairs * 0.25


def test_ablation_subsets_run(emf_model, tau, workload):
    """Every nonempty filter subset is executable and sound (Fig 14)."""
    subsets = [("SF",), ("VMF",), ("EMF",), ("SF", "EMF"), ("SF", "VMF"),
               ("VMF", "EMF"), ("SF", "VMF", "EMF")]
    full = geqo_set_local(workload.plans, emf_model, tau=tau).pairs
    for fs in subsets:
        res = geqo_set_local(workload.plans, emf_model, filters=fs, tau=tau)
        v = Verifier()
        for i, j in res.pairs:
            assert v.equivalent(workload.plans[i], workload.plans[j])


def test_spark_pipeline_matches_local(spark, emf_model, tau, workload):
    """Parity of the two executors over many SF-groups, which the Spark
    executor spreads over several tasks."""
    assert sum(len(g) > 1 for g in sf_groups(workload.plans).values()) >= 8
    local = geqo_set_local(workload.plans, emf_model, tau=tau)
    dist = geqo_set_spark(spark, workload.plans, emf_model, tau=tau)
    assert local.pairs
    assert dist.pairs == local.pairs
    assert dist.survivors == local.survivors
    assert list(dist.survivors) == ["SF", "VMF", "EMF", "AV"]
    assert dist.av_pairs_checked == local.av_pairs_checked
    assert dist.av_unknown == local.av_unknown
    assert dist.n_total_pairs == local.n_total_pairs


def test_spark_pipeline_without_pairs(spark, emf_model):
    """No SF-group holds two plans: no Spark job, empty result."""
    w = make_planted_workload(TPCDS_LITE, n_subexpr=2, n_equiv=1, seed=1)
    one = [w.plans[0]]
    res = geqo_set_spark(spark, one, emf_model)
    assert res.pairs == set() and res.n_total_pairs == 0
    assert res.survivors == {"SF": 0, "VMF": 0, "EMF": 0, "AV": 0}


class _RaisingVerifier(Verifier):
    """Raises on one chosen pair of plans, like an exhausted bijection
    budget or a solver cap."""

    def __init__(self, bad, error):
        super().__init__()
        self.bad = bad
        self.error = error

    def equivalent(self, p1, p2):
        if p1 is self.bad[0] and p2 is self.bad[1]:
            raise self.error("budget exceeded")
        return super().equivalent(p1, p2)


@pytest.mark.parametrize("error", [RuntimeError, SolverError])
def test_av_error_is_unknown_not_fatal(workload, error):
    plans = workload.plans
    i, j = min(workload.planted)
    clean = geqo_set_local(plans, None, filters=("SF",))
    assert (i, j) in clean.pairs and clean.av_unknown == 0
    res = geqo_set_local(
        plans, None, filters=("SF",),
        verifier=_RaisingVerifier((plans[i], plans[j]), error),
    )
    assert res.av_unknown == 1
    assert res.pairs == clean.pairs - {(i, j)}
    assert res.av_pairs_checked == clean.av_pairs_checked
    assert set(res.survivors) == {"SF", "AV"}


def test_verify_all_is_one_group(workload):
    """Without SF and VMF the AV sees every pair of the workload."""
    res = geqo_set_local(workload.plans, None, filters=())
    assert res.av_pairs_checked == res.n_total_pairs
    assert workload.planted <= res.pairs
    assert set(res.survivors) == {"AV"}


def test_model_filters_need_a_model(workload):
    with pytest.raises(ValueError):
        geqo_set_local(workload.plans, None, filters=("SF", "EMF"))


def test_pipeline_empty_and_tiny_workloads(emf_model):
    res = geqo_set_local([], emf_model)
    assert res.pairs == set() and res.n_total_pairs == 0
    w = make_planted_workload(TPCDS_LITE, n_subexpr=2, n_equiv=1, seed=1)
    res = geqo_set_local(w.plans, emf_model, tau=5.0)
    assert w.planted <= res.pairs
