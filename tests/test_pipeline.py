"""End-to-end GEqO cascade tests (Equation 1/2 semantics)."""
import sys

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import cascade_group, geqo_set_local, geqo_set_spark
from repro.encoding.canonical_form import canonical_plan
from repro.encoding.instance import encode_tree
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import calibrate_tau
from repro.solver.fm import SolverError
from repro.verifier.av import Verifier
from repro.workload.generator import random_plans
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCDS_LITE
from tests.test_agnostic_encoding import WIDE
from tests.test_filters import scratch_scores


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCDS_LITE, n_subexpr=50, n_equiv=6, seed=17)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCDS_LITE, 60, seed=18)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


@pytest.fixture(scope="module")
def wide_plans():
    """Plans over two tables of the 9-table × 10-column chain schema:
    some SF-groups exceed the agnostic space as a group, yet hold pairs
    that fit it."""
    return random_plans(WIDE, 40, seed=0, tables=("w3", "w4"))


def _multi_groups(plans):
    return [[plans[i] for i in ids] for ids in sf_groups(plans).values() if len(ids) > 1]


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


def test_spark_pipeline_matches_local(spark, emf_model, tau, workload, wide_plans):
    """Parity of the two executors over many SF-groups, which the Spark
    executor spreads over several tasks; the chain-schema plans add
    out-of-space pass-throughs."""
    assert sum(len(g) > 1 for g in sf_groups(workload.plans).values()) >= 8
    plans = workload.plans + wide_plans
    local = geqo_set_local(plans, emf_model, tau=tau)
    dist = geqo_set_spark(spark, plans, emf_model, tau=tau)
    assert local.passthrough["VMF"] and local.passthrough["EMF"]
    assert local.pairs
    assert dist.pairs == local.pairs
    assert dist.survivors == local.survivors
    assert list(dist.survivors) == ["SF", "VMF", "EMF", "AV"]
    assert dist.av_pairs_checked == local.av_pairs_checked
    assert dist.av_unknown == local.av_unknown
    assert dist.passthrough == local.passthrough
    assert dist.n_total_pairs == local.n_total_pairs


def test_cascade_emf_scores_match_from_scratch(emf_model, tau, workload, wide_plans, monkeypatch):
    """The EMF's converter scores inside :func:`cascade_group` equal the
    from-scratch pairwise reference exactly; out-of-space pairs score
    1.0 and are counted, and so are groups the VMF passes whole."""
    real, scored = pipeline.emf_scores, []

    def recording(model, pairs, group):
        proba, passed = real(model, pairs, group)
        scored.append((pairs, proba, passed))
        return proba, passed

    monkeypatch.setattr(pipeline, "emf_scores", recording)
    groups = _multi_groups(workload.plans) + _multi_groups(wide_plans)
    assert len(groups) >= 8
    mixed = 0
    for plans in groups:
        res = cascade_group(plans, emf_model, tau=tau, verifier=Verifier())
        pairs, proba, passed = scored.pop()
        reference, out = scratch_scores(emf_model, [(plans[i], plans[j]) for i, j in pairs])
        np.testing.assert_array_equal(proba, reference)  # out-of-space pairs: 1.0
        assert res.passthrough["EMF"] == passed == out
        if res.passthrough["VMF"]:
            assert res.survivors["VMF"] == len(plans) * (len(plans) - 1) // 2
            mixed += 0 < out < len(pairs)
    assert mixed  # a whole-group pass-through with in- and out-of-space pairs


def _count_calls(monkeypatch, fn):
    """Patch ``fn`` wherever a ``repro`` module binds it; the list of
    its first arguments grows with each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro.") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_each_plan_is_encoded_once_per_group(emf_model, tau, workload, monkeypatch):
    """The VMF and the EMF share one preparation per SF-group: one
    ``canonical_plan`` and one ``encode_tree`` call per plan."""
    canon = _count_calls(monkeypatch, canonical_plan)
    encoded = _count_calls(monkeypatch, encode_tree)
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    assert res.survivors["VMF"] > 0
    multi = [id(p) for g in _multi_groups(workload.plans) for p in g]
    assert sorted(map(id, canon)) == sorted(multi)
    assert len(encoded) == len(multi)


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
