"""Dataset builder tests: labels must actually be (non)equivalences."""
import numpy as np
import pytest

from repro.core.plan import Col, Comparison, Join, Project, Scan, to_json
from repro.filters.schema_filter import sf_key
from repro.solver.fm import SolverError
from repro.verifier.av import Verifier
from repro.workload import labeler
from repro.workload.generator import random_base_plan
from repro.workload.labeler import (
    make_dataset,
    make_negative_pairs,
    make_planted_workload,
    make_positive_pairs,
    perturb,
    plan_satisfiable,
)
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_plan import fig1_q1


def test_sf_key():
    assert sf_key(fig1_q1()) == (("A", "B"), 2)


def test_plan_satisfiable_keeps_plans_the_verifier_cannot_flatten():
    a, b = Scan("A", "A"), Scan("B", "B")
    left = Join(a, b, Comparison(Col("A", "k"), "=", Col("B", "k")), "left")
    assert plan_satisfiable(Project((Col("A", "x"),), left))


def test_plan_satisfiable_propagates_unexpected_errors(monkeypatch):
    def broken(constraints):
        raise TypeError("a bug, not an undecidable plan")

    monkeypatch.setattr(labeler, "satisfiable", broken)
    with pytest.raises(TypeError):
        plan_satisfiable(fig1_q1())


def test_plan_satisfiable_keeps_plans_the_solver_cannot_decide(monkeypatch):
    def undecided(constraints):
        raise SolverError("too many disequalities")

    monkeypatch.setattr(labeler, "satisfiable", undecided)
    assert plan_satisfiable(fig1_q1())


def test_positive_pairs_are_av_equivalent():
    v = Verifier()
    for pair in make_positive_pairs(TPCH_LITE, 12, seed=3):
        assert pair.label
        assert v.equivalent(pair.p1, pair.p2), pair.families


def test_negative_pairs_are_av_nonequivalent():
    v = Verifier()
    pairs = make_negative_pairs(TPCH_LITE, 30, seed=4)
    assert all(not v.equivalent(p.p1, p.p2) for p in pairs)


def test_unscreened_negatives_have_some_noise_screening_matters():
    """Documents why screening exists: raw perturbations are noisy."""
    v = Verifier()
    pairs = make_negative_pairs(TPCH_LITE, 30, seed=4, screen=False)
    wrong = sum(1 for p in pairs if v.equivalent(p.p1, p.p2))
    assert wrong >= 1  # seed-specific but stable: noise is real


def test_perturb_preserves_sf_group():
    g = np.random.default_rng(6)
    for _ in range(20):
        p = random_base_plan(TPCDS_LITE, g)
        q = perturb(p, g)
        assert sf_key(q) == sf_key(p)


def test_perturb_changes_plan():
    g = np.random.default_rng(7)
    changed = sum(
        to_json(perturb(p := random_base_plan(TPCH_LITE, g), g)) != to_json(p)
        for _ in range(20)
    )
    assert changed >= 18


def test_dataset_balanced_and_shuffled():
    ds = make_dataset(TPCH_LITE, 20, 20, seed=0)
    assert len(ds) == 40
    assert sum(p.label for p in ds) == 20
    # shuffled: not all positives first
    labels = [p.label for p in ds]
    assert labels != sorted(labels, reverse=True)


def test_dataset_deterministic():
    a = make_dataset(TPCH_LITE, 10, 10, seed=5)
    b = make_dataset(TPCH_LITE, 10, 10, seed=5)
    assert [(to_json(x.p1), to_json(x.p2), x.label) for x in a] == [
        (to_json(x.p1), to_json(x.p2), x.label) for x in b
    ]


def test_planted_workload_shape():
    w = make_planted_workload(TPCDS_LITE, n_subexpr=40, n_equiv=5, seed=1)
    assert len(w.plans) >= 40
    assert len(w.planted) == 5
    assert len({to_json(p) for p in w.plans}) == len(w.plans)
    assert w.n_pairs == len(w.plans) * (len(w.plans) - 1) // 2


def test_reuse_workload_classes():
    from repro.workload.labeler import make_reuse_workload

    w = make_reuse_workload(TPCH_LITE, n_classes=3, class_size=3,
                            n_singletons=4, seed=9, min_tables=2)
    assert len(w.plans) >= 3 * 2 + 4  # classes may fall short of size
    v = Verifier()
    for i, j in w.planted:
        assert v.equivalent(w.plans[i], w.plans[j])
    # every class member joins ≥ 2 tables
    from repro.core.plan import base_tables

    for p in w.plans:
        assert len(base_tables(p)) >= 2


def test_planted_pairs_are_equivalent_and_same_sf_group():
    w = make_planted_workload(TPCH_LITE, n_subexpr=30, n_equiv=4, seed=2)
    v = Verifier()
    for i, j in w.planted:
        assert sf_key(w.plans[i]) == sf_key(w.plans[j])
        assert v.equivalent(w.plans[i], w.plans[j])
