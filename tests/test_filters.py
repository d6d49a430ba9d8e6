"""SF / VMF / EMF filter tests."""
import itertools

import numpy as np
import pytest

from repro.core.plan import Col, Comparison, Const, Filter, Project, Scan
from repro.core.record import PlanRecord, records
from repro.encoding.agnostic import (
    PAIR_BATCH,
    encode_pair_agnostic,
    instance_group,
    pair_batches,
)
from repro.encoding.instance import concat, take
from repro.filters import vmf as vmf_module
from repro.filters.emf_filter import emf_scores
from repro.filters.schema_filter import sf_groups, sf_key, sf_pairs
from repro.filters.vmf import (
    calibrate_tau,
    candidate_pairs,
    group_pairs,
    pair_distances,
    radius_join,
)
from repro.workload.labeler import make_planted_workload, make_positive_pairs
from repro.workload.schema import TPCH_LITE
from tests.test_agnostic_encoding import assert_packed_equal
from tests.test_plan import fig1_q1, fig1_q2


@pytest.fixture(scope="module")
def workload():
    return make_planted_workload(TPCH_LITE, n_subexpr=60, n_equiv=6, seed=3)


@pytest.fixture(scope="module")
def tau(emf_model):
    pos = make_positive_pairs(TPCH_LITE, 60, seed=9)
    return calibrate_tau(emf_model, [(p.p1, p.p2) for p in pos])


def test_sf_keys_equal_figure1():
    assert sf_key(fig1_q1()) == sf_key(fig1_q2())


def test_sf_groups_partition(workload):
    groups = sf_groups(workload.plans)
    assert sum(len(v) for v in groups.values()) == len(workload.plans)
    for key, idxs in groups.items():
        for i in idxs:
            assert sf_key(workload.plans[i]) == key


def test_sf_admits_all_planted(workload):
    """SF must not reject any true equivalence (planted pairs share keys)."""
    for i, j in workload.planted:
        assert sf_key(workload.plans[i]) == sf_key(workload.plans[j])


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
    group = instance_group(records([fig1_q1(), fig1_q2(), fig1_q1()]))
    assert group_pairs(None, group, tau=1.0) == ({(0, 1), (0, 2), (1, 2)}, 1)


def test_vmf_candidates_are_the_exact_radius_join(emf_model, tau, workload):
    for idxs in sf_groups(workload.plans).values():
        local = [workload.plans[i] for i in idxs]
        if len(local) < 2:
            continue
        group = instance_group(records(local))
        Z = vmf_module.embed_group(emf_model, group)
        assert group_pairs(emf_model, group, tau=tau) == (_brute_force_radius(Z, tau), 0)


def test_vmf_high_recall_on_planted(emf_model, tau, workload):
    cand = candidate_pairs(emf_model, workload.plans, tau=tau)
    found = sum(1 for p in workload.planted if p in cand)
    assert found >= len(workload.planted) - 1  # near-perfect recall
    # and it prunes: candidates well below SF-pair count
    sf_pairs = sum(
        len(v) * (len(v) - 1) // 2 for v in sf_groups(workload.plans).values()
    )
    assert len(cand) < sf_pairs


def test_vmf_pair_distance_zero_for_identical(emf_model):
    assert pair_distances(emf_model, [(fig1_q1(), fig1_q1())])[0] < 1e-9


# A table "wide" with 8 columns, one more than the agnostic space's 7
# column symbols: a plan that references all 8 cannot be encoded.
def _wide_plan(n_cols: int, bound: float):
    scan = Scan("wide", "wide")
    pred = Comparison(Col("wide", "c0"), ">", Const(bound))
    return Project(tuple(Col("wide", f"c{k}") for k in range(n_cols)), Filter(pred, scan))


def test_pair_distances_nan_out_of_space_and_calibrate_skips_it(emf_model):
    wide = (_wide_plan(8, 1.0), _wide_plan(8, 2.0))
    same = (fig1_q1(), fig1_q2())
    d = pair_distances(emf_model, [wide, same])
    assert np.isnan(d[0]) and not np.isnan(d[1])
    assert calibrate_tau(emf_model, [wide, same]) == max(d[1], 1e-3)


def test_emf_scores_shape_and_range(emf_model, workload):
    pairs = sorted(workload.planted)[:4]
    s, passed = emf_scores(emf_model, pairs, instance_group(records(workload.plans)))
    assert s.shape == (4,) and passed == 0
    assert np.all((s >= 0) & (s <= 1))


def test_emf_scores_separate_planted_from_random(emf_model, workload):
    planted = sorted(workload.planted)
    g = np.random.default_rng(0)
    groups = [v for v in sf_groups(workload.plans).values() if len(v) > 1]
    rand_pairs = []
    planted_set = set(workload.planted)
    while len(rand_pairs) < 10:
        idxs = groups[int(g.integers(0, len(groups)))]
        i, j = g.choice(idxs, 2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        if (i, j) not in planted_set:
            rand_pairs.append((i, j))
    group = instance_group(records(workload.plans))
    sp, _ = emf_scores(emf_model, planted, group)
    sr, _ = emf_scores(emf_model, rand_pairs, group)
    assert sp.mean() > sr.mean() + 0.2


def scratch_scores(model, plans, pairs, group) -> tuple[np.ndarray, int]:
    """From-scratch reference for :func:`emf_scores` on index ``pairs``
    into ``plans`` (prepared as ``group``), in the converter's side
    layout: each distinct side of a :func:`pair_batches` batch is the
    ``encode_pair_agnostic`` tree, on canonical plans, of the first pair
    that holds it. The sides must equal the converter's bit for bit, and
    they are scored in the same batches and shapes, so the scores may
    differ only if the converter's sides do. An out-of-space pair scores
    1.0 and is counted."""
    canonical = [PlanRecord(p).canonical for p in plans]
    direct = {}
    for k, (i, j) in enumerate(pairs):
        try:
            direct[k] = encode_pair_agnostic(canonical[i], canonical[j])
        except ValueError:
            pass
    out, seen = np.ones(len(pairs)), []
    for ks, sides, first, second in pair_batches(group, pairs):
        trees = {}
        for k, a, b in zip(ks.tolist(), first.tolist(), second.tolist()):
            trees.setdefault(a, take(direct[k], [0]))
            trees.setdefault(b, take(direct[k], [1]))
        reference = concat([trees[s] for s in range(len(trees))])
        assert_packed_equal(reference, sides)
        out[ks] = model.predict_proba(reference, first, second)
        seen += ks.tolist()
    assert seen == sorted(direct)
    return out, len(pairs) - len(direct)


def test_emf_scorers_agree(emf_model, workload):
    """The §4.2.1 converter scores exactly as encoding each pair from
    scratch; an out-of-space pair scores exactly 1.0 and is counted."""
    wide = [_wide_plan(8, 1.0), _wide_plan(8, 2.0), _wide_plan(2, 3.0), _wide_plan(3, 4.0)]
    plans = list(workload.plans) + wide
    n = len(workload.plans)
    pairs = list(itertools.combinations(range(n), 2))[:300]
    pairs += [(n, n + 1), (n + 2, n + 3)]  # out of space, then in space
    group = instance_group(records(plans))
    by_converter, passed = emf_scores(emf_model, pairs, group)
    reference, out = scratch_scores(emf_model, plans, pairs, group)
    assert len(pairs) > PAIR_BATCH  # more than one batch
    np.testing.assert_array_equal(by_converter, reference)
    assert by_converter[-2] == 1.0 and by_converter[-1] < 1.0
    assert passed == out == 1
