"""SF / VMF / EMF filter tests."""
import itertools

import numpy as np
import pytest

from repro.filters import vmf as vmf_module
from repro.filters.emf_filter import emf_scores
from repro.filters.keys import sf_key
from repro.filters.schema_filter import (
    sf_groups,
    sf_pair_pass,
    sf_pairs,
)
from repro.filters.vmf import VMF, calibrate_tau, radius_join
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_plan import fig1_q1, fig1_q2


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCH_LITE, n_subexpr=60, n_equiv=6, seed=3)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCH_LITE, 60, seed=9)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


def test_sf_pair_pass_figure1():
    assert sf_pair_pass(fig1_q1(), fig1_q2())


def test_sf_groups_partition(workload):
    groups = sf_groups(workload.plans)
    assert sum(len(v) for v in groups.values()) == len(workload.plans)
    for key, idxs in groups.items():
        for i in idxs:
            assert sf_key(workload.plans[i]) == key


def test_sf_admits_all_planted(workload):
    """SF must not reject any true equivalence (planted pairs share keys)."""
    for i, j in workload.planted:
        assert sf_pair_pass(workload.plans[i], workload.plans[j])


def test_sf_pairs_are_the_same_group_pairs(workload):
    plans = workload.plans
    expect = {
        (i, j)
        for i, j in itertools.combinations(range(len(plans)), 2)
        if sf_key(plans[i]) == sf_key(plans[j])
    }
    assert sf_pairs(plans) == expect


def _brute_force_radius(Z, tau):
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(Z)), 2)
        if ((Z[i] - Z[j]) ** 2).sum() <= tau * tau
    }


@pytest.mark.parametrize("block", [1 << 20, 7])
def test_radius_join_matches_brute_force(monkeypatch, block):
    """Exact join against a pairwise reference; integer points put
    pairs at distance exactly τ (3-4-5 triangles), which are admitted."""
    monkeypatch.setattr(vmf_module, "_JOIN_BLOCK", block)  # force row blocks
    g = np.random.default_rng(4)
    Z = g.integers(0, 12, size=(80, 2)).astype(float)
    tau = 5.0
    got = radius_join(Z, tau)
    assert got == _brute_force_radius(Z, tau)
    on_boundary = {
        (i, j) for i, j in got if ((Z[i] - Z[j]) ** 2).sum() == tau * tau
    }
    assert on_boundary  # the tie case is exercised
    assert all(i < j for i, j in got)
    # just below τ, exactly the ties drop out
    assert radius_join(Z, np.nextafter(tau, 0)) == got - on_boundary


def test_radius_join_returns_a_dense_cluster_in_full():
    """600 near-identical embeddings: every pair is within τ, so every
    point has 599 neighbours, more than the ``ef`` = 512 hits the HNSW
    radius search it replaced returned per query."""
    g = np.random.default_rng(5)
    Z = 1e-3 * g.standard_normal((600, 16))
    got = radius_join(Z, 1.0)
    assert len(got) == 600 * 599 // 2


def test_radius_join_empty_and_single():
    assert radius_join(np.zeros((0, 3)), 1.0) == set()
    assert radius_join(np.zeros((1, 3)), 1.0) == set()


def test_vmf_group_pairs_pass_out_of_space_groups_through(monkeypatch):
    def out_of_space(*args, **kwargs):
        raise ValueError("group exceeds the agnostic space")

    monkeypatch.setattr(vmf_module, "group_candidate_pairs", out_of_space)
    plans = [fig1_q1(), fig1_q2(), fig1_q1()]
    assert VMF(None).group_pairs(plans) == {(0, 1), (0, 2), (1, 2)}


def test_vmf_candidates_are_the_exact_radius_join(emf_model, tau, workload):
    vmf = VMF(emf_model, tau=tau)
    for idxs in sf_groups(workload.plans).values():
        local = [workload.plans[i] for i in idxs]
        if len(local) < 2:
            continue
        Z = vmf_module.embed_group(emf_model, local)
        assert vmf.group_pairs(local) == _brute_force_radius(Z, tau)


def test_vmf_high_recall_on_planted(emf_model, tau, workload):
    vmf = VMF(emf_model, tau=tau)
    cand = vmf.candidate_pairs(workload.plans)
    found = sum(1 for p in workload.planted if p in cand)
    assert found >= len(workload.planted) - 1  # near-perfect recall
    # and it prunes: candidates well below SF-pair count
    sf_pairs = sum(
        len(v) * (len(v) - 1) // 2 for v in sf_groups(workload.plans).values()
    )
    assert len(cand) < sf_pairs


def test_vmf_pair_distance_zero_for_identical(emf_model):
    vmf = VMF(emf_model)
    assert vmf.pair_distance(fig1_q1(), fig1_q1()) < 1e-9


def test_emf_scores_shape_and_range(emf_model, workload):
    pairs = [(workload.plans[i], workload.plans[j]) for i, j in list(workload.planted)[:4]]
    s = emf_scores(emf_model, pairs)
    assert s.shape == (4,)
    assert np.all((s >= 0) & (s <= 1))


def test_emf_scores_separate_planted_from_random(emf_model, workload):
    planted = [(workload.plans[i], workload.plans[j]) for i, j in workload.planted]
    g = np.random.default_rng(0)
    groups = [v for v in sf_groups(workload.plans).values() if len(v) > 1]
    rand_pairs = []
    planted_set = set(workload.planted)
    while len(rand_pairs) < 10:
        idxs = groups[int(g.integers(0, len(groups)))]
        i, j = g.choice(idxs, 2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        if (i, j) not in planted_set:
            rand_pairs.append((workload.plans[i], workload.plans[j]))
    sp = emf_scores(emf_model, planted)
    sr = emf_scores(emf_model, rand_pairs)
    assert sp.mean() > sr.mean() + 0.2

