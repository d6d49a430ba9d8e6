"""End-to-end GEqO cascade tests (Equation 1/2 semantics)."""
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.pipeline import cascade_group, geqo_set_local, geqo_set_spark
from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Project,
    Scan,
    decompose,
    predicates,
)
from repro.core.record import PlanRecord, flatten, records
from repro.encoding.agnostic import instance_group, pack_group
from repro.encoding.instance import encode_tree
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import calibrate_tau
from repro.solver.fm import SolverError, satisfiable
from repro.verifier import av
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
    v, recs = Verifier(), records(workload.plans)
    for i, j in res.pairs:
        assert v.equivalent(recs[i], recs[j])


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
        v, recs = Verifier(), records(workload.plans)
        for i, j in res.pairs:
            assert v.equivalent(recs[i], recs[j])


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


def test_spark_pipeline_is_one_job_one_stage(spark, emf_model, tau, workload):
    """One ``geqo_set_spark`` call on many SF-groups is one Spark job
    of one stage: no shuffle, no second job to collect."""
    assert sum(len(g) > 1 for g in sf_groups(workload.plans).values()) >= 8
    sc = spark.sparkContext
    sc.setJobGroup("geqo-one-stage", "one geqo_set_spark call")
    try:
        geqo_set_spark(spark, workload.plans, emf_model, tau=tau)
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description",
                    "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup("geqo-one-stage")
    assert len(jobs) == 1
    assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1
    assert sc.getLocalProperty("spark.jobGroup.id") is None


def test_cascade_emf_scores_match_from_scratch(emf_model, tau, workload, wide_plans, monkeypatch):
    """The EMF's converter scores inside :func:`cascade_group` equal the
    from-scratch pairwise reference exactly; out-of-space pairs score
    1.0 and are counted, and so are groups the VMF passes whole."""
    real, scored = pipeline.emf_scores, []

    def recording(model, pairs, group):
        proba, passed = real(model, pairs, group)
        scored.append((pairs, group, proba, passed))
        return proba, passed

    monkeypatch.setattr(pipeline, "emf_scores", recording)
    groups = _multi_groups(workload.plans) + _multi_groups(wide_plans)
    assert len(groups) >= 8
    mixed = 0
    for plans in groups:
        res = cascade_group(plans, emf_model, tau=tau, verifier=Verifier())
        pairs, group, proba, passed = scored.pop()
        reference, out = scratch_scores(emf_model, plans, pairs, group)
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
    """The VMF and the EMF share one preparation per SF-group, which the
    AV reads too: one ``decompose`` and one ``encode_tree`` call per
    plan."""
    decomposed = _count_calls(monkeypatch, decompose)
    encoded = _count_calls(monkeypatch, encode_tree)
    res = geqo_set_local(workload.plans, emf_model, tau=tau)
    assert res.survivors["VMF"] > 0 and res.av_pairs_checked > 0
    multi = [id(p) for g in _multi_groups(workload.plans) for p in g]
    assert sorted(map(id, decomposed)) == sorted(multi)
    assert len(encoded) == len(multi)


def test_one_call_walks_each_plan_three_times(emf_model, monkeypatch):
    """On the Table 1 pool (320 plans), one call walks each plan at most
    three times: the SF key, the record's ``decompose`` and the
    encoder's walk. The encoder takes its vocabulary from its own
    entries and its aliases from the record."""
    from repro.core import plan as plan_module
    from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS

    w = make_planted_workload(TPCDS_LITE, n_subexpr=320, n_equiv=50, seed=100,
                              table_sets=TABLE_SETS, max_proj=2, family_tiers=FAMILY_TIERS)
    walks = _count_calls(monkeypatch, plan_module.bfs)
    res = geqo_set_local(w.plans, emf_model, tau=4.4)
    assert res.av_pairs_checked > 0
    assert len(walks) <= 3 * len(w.plans) == 960


def _left_join_plan():
    return Project((Col("A", "x"),), Join(
        Scan("A", "A"), Scan("B", "B"), Comparison(Col("A", "k"), "=", Col("B", "k")), "left"))


def _unrebuildable_plan():
    """An SPJ plan whose join predicate names one side only, so
    ``compose`` finds no join graph to rebuild it from."""
    return Project((Col("A", "x"),), Filter(
        Comparison(Col("B", "y"), "<", Const(3.0)),
        Join(Scan("A", "A"), Scan("B", "B"), Comparison(Col("A", "x"), ">", Const(5.0)))))


def test_record_fallbacks_encode_as_written():
    """A left join (outside the fragment) and a plan ``compose`` cannot
    rebuild keep their own shape: the record's canonical plan is the
    plan itself, and the group encodes it as written."""
    plans = [_left_join_plan(), _unrebuildable_plan()]
    recs = records(plans)
    assert recs[0].spj is None and recs[1].spj is not None
    assert all(r.canonical is p for r, p in zip(recs, plans))
    group = instance_group(recs)
    direct = pack_group([encode_tree(p) for p in plans], group.vocab)
    for field, got, want in zip(direct.trees._fields, group.trees, direct.trees):
        np.testing.assert_array_equal(got, want, err_msg=field)


class _RecordingVerifier(Verifier):
    """Records the plans of each checked pair of records with its verdict."""

    def __init__(self):
        super().__init__()
        self.checked = []

    def equivalent(self, r1, r2):
        verdict = super().equivalent(r1, r2)
        self.checked.append((r1.plan, r2.plan, verdict))
        return verdict


def test_each_predicate_is_lowered_and_each_plan_flattened_once_per_call(
    emf_model, tau, workload, monkeypatch
):
    """One call decomposes each plan at most once, lowers each predicate
    object at most once, for the canonical order, the encoder and the AV
    alike, flattens each plan that reaches the AV once and decides its
    satisfiability at most once; the next call prepares its plans
    again."""
    real, lowered = Comparison.to_constraint, []

    def counted(pred):
        lowered.append(pred)
        return real(pred)

    monkeypatch.setattr(Comparison, "to_constraint", counted)
    decomposed = _count_calls(monkeypatch, decompose)
    flattened = _count_calls(monkeypatch, flatten)
    decided = []  # the AV's own satisfiability checks, not FM's inside implies

    def deciding(cs):
        decided.append(cs)
        return satisfiable(cs)

    monkeypatch.setattr(av, "satisfiable", deciding)
    plans = workload.plans
    preds = {id(q) for p in plans for q in predicates(p)}
    constraints = {id(p): tuple(flatten(PlanRecord(p)).constraints) for p in plans}
    for filters in (pipeline.CASCADE, ()):
        verifier = _RecordingVerifier()
        for call in (1, 2):
            for calls in (lowered, decomposed, flattened, decided):
                calls.clear()
            res = geqo_set_local(plans, emf_model if filters else None,
                                 filters=filters, tau=tau, verifier=verifier)
            ids = [id(q) for q in lowered]
            assert ids and len(ids) == len(set(ids)) and set(ids) <= preds
            assert decomposed and max(Counter(map(id, decomposed)).values()) == 1
            av_plans = {id(p) for p1, p2, _ in verifier.checked for p in (p1, p2)}
            assert av_plans
            assert Counter(id(r.plan) for r in flattened) == dict.fromkeys(av_plans, 1)
            # one decision per plan: a constraint tuple is decided at most
            # as often as there are reached plans that have it
            reached = Counter(constraints[i] for i in av_plans)
            assert decided and all(
                n <= reached[cs] for cs, n in Counter(map(tuple, decided)).items()
            )
            assert len(verifier.checked) == res.av_pairs_checked * call


def test_av_verdicts_match_fresh_verifier(emf_model, tau, workload):
    """The cascade's AV verdicts and verify-all's pairs and unknowns
    equal a fresh ``Verifier`` per pair, which flattens both plans from
    scratch: a mis-indexed flat form would prove a wrong pair. Solver
    calls are fewer by the satisfiability checks the records share."""
    def fresh(p1, p2):
        v = Verifier()
        return v.equivalent(PlanRecord(p1), PlanRecord(p2)), v.solver_calls

    cascade = _RecordingVerifier()
    geqo_set_local(workload.plans, emf_model, tau=tau, verifier=cascade)
    assert cascade.checked
    assert [v for *_, v in cascade.checked] == [fresh(p1, p2)[0] for p1, p2, _ in cascade.checked]

    verifier = Verifier()
    res = geqo_set_local(workload.plans, None, filters=(), verifier=verifier)
    plans = workload.plans
    verdicts = {
        (i, j): fresh(plans[i], plans[j])
        for i in range(len(plans)) for j in range(i + 1, len(plans))
    }
    assert res.pairs == {ij for ij, (v, _) in verdicts.items() if v}
    # Fresh verifiers decide satisfiability once per pair (75 solver
    # calls in all); one call decides it once per plan.
    assert sum(n for _, n in verdicts.values()) == 75
    assert verifier.solver_calls == 63
    assert res.av_unknown == sum(v is None for v, _ in verdicts.values())


def test_spark_pipeline_without_pairs(spark, emf_model):
    """No SF-group holds two plans: no Spark job, empty result."""
    w = make_planted_workload(TPCDS_LITE, n_subexpr=2, n_equiv=1, seed=1)
    one = [w.plans[0]]
    res = geqo_set_spark(spark, one, emf_model)
    assert res.pairs == set() and res.n_total_pairs == 0
    assert res.survivors == {"SF": 0, "VMF": 0, "EMF": 0, "AV": 0}


class _RaisingVerifier(Verifier):
    """Raises inside the check of one chosen pair of plans, like an
    exhausted bijection budget or a solver cap; ``equivalent`` turns
    that into an unknown verdict."""

    def __init__(self, bad, error):
        super().__init__()
        self.bad = bad
        self.error = error

    def _equivalent(self, r1, r2):
        if r1.plan is self.bad[0] and r2.plan is self.bad[1]:
            raise self.error("budget exceeded")
        return super()._equivalent(r1, r2)


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
