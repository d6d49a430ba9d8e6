"""Parity of the batched packed path with each tree scored alone.

The VMF's embeddings and the EMF's scores run on packed SF-groups
(``instance_group`` → slot maps → ``EMF.embed_eval`` /
``EMF.predict_proba``), many trees per batch. The reference encodes
each plan directly and embeds it alone as a one-tree batch (each pair
alone as a one-pair batch): on every SF-group of the Table 1 pool and
on an out-of-space group, the two agree to rounding, and every decision
the cascade takes from them is identical. Training tensors are the
converter's pairs gathered and concatenated, and a subset of them equals the
subset's pairs encoded directly."""
import itertools

import numpy as np
import pytest

from repro.core.record import PlanRecord, records
from repro.encoding.agnostic import (
    DEFAULT_SPACE,
    PAIR_BATCH,
    encode_group_agnostic,
    encode_pair_agnostic,
    instance_group,
)
from repro.experiments.table1 import planted_pool
from repro.filters.emf_filter import EMF_THRESHOLD, emf_scores
from repro.filters.schema_filter import sf_groups
from repro.encoding.instance import Packed, concat, densify, take
from repro.filters.vmf import (
    TARGET_RECALL,
    calibrate_tau,
    embed_group,
    group_pairs,
    pair_distances,
    radius_join,
)
from repro.nn.model import EMF, EMFConfig
from repro.nn.train import encode_pairs, predict, train_emf
from repro.workload.labeler import LabeledPair, make_dataset, make_positive_pairs
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_filters import _wide_plan

TOL = 1e-10


@pytest.fixture(scope="module")
def pool(emf_model):
    """The Table 1 pool (320 plans, seed 100) and its τ."""
    return planted_pool(emf_model, n_subexpr=320, n_equiv=50, seed=100)


def single_embeddings(model, plans) -> np.ndarray:
    """Each plan of a group encoded directly and embedded alone."""
    trees = encode_group_agnostic([PlanRecord(p).canonical for p in plans])
    return np.concatenate([model.embed_eval(*take(trees, [k])) for k in range(len(plans))])


def single_scores(model, plans, pairs) -> tuple[np.ndarray, int]:
    """Each pair encoded directly and scored alone; an out-of-space
    pair scores 1.0 and is counted."""
    out, skipped = np.ones(len(pairs)), 0
    canonical = [PlanRecord(p).canonical for p in plans]
    for k, (i, j) in enumerate(pairs):
        try:
            both = encode_pair_agnostic(canonical[i], canonical[j])
        except ValueError:
            skipped += 1
            continue
        out[k] = model.predict_proba(both, [0], [1])[0]
    return out, skipped


def survivors(pairs, scores) -> set:
    return {p for p, s in zip(pairs, scores) if s >= EMF_THRESHOLD}


def test_packed_path_matches_single_trees_on_table1_groups(emf_model, pool):
    plans, tau = pool
    groups = [ids for ids in sf_groups(plans).values() if len(ids) > 1]
    assert len(groups) == 10
    n_pairs = 0
    for ids in groups:
        local = [plans[i] for i in ids]
        group = instance_group(records(local))
        z = embed_group(emf_model, group)
        z_ref = single_embeddings(emf_model, local)
        assert np.abs(z - z_ref).max() <= TOL
        assert radius_join(z, tau) == radius_join(z_ref, tau)

        pairs = list(itertools.combinations(range(len(local)), 2))
        scores, passed = emf_scores(emf_model, pairs, group)
        reference, out = single_scores(emf_model, local, pairs)
        assert np.abs(scores - reference).max() <= TOL
        assert survivors(pairs, scores) == survivors(pairs, reference)
        assert passed == out == 0
        n_pairs += len(pairs)
    assert n_pairs == 6996


def test_packed_path_out_of_space(emf_model):
    """A group over 8 columns of one table exceeds the agnostic space
    whole; only its pair of 2- and 3-column plans fits."""
    plans = [_wide_plan(8, 1.0), _wide_plan(8, 2.0), _wide_plan(2, 3.0), _wide_plan(3, 4.0)]
    group = instance_group(records(plans))
    with pytest.raises(ValueError):
        embed_group(emf_model, group)
    with pytest.raises(ValueError):
        encode_group_agnostic([PlanRecord(p).canonical for p in plans])
    pairs = list(itertools.combinations(range(4), 2))
    scores, passed = emf_scores(emf_model, pairs, group)
    reference, out = single_scores(emf_model, plans, pairs)
    assert passed == out == 5
    assert all(scores[k] == 1.0 for k in range(5))  # (2, 3) is last
    assert abs(scores[5] - reference[5]) <= TOL and scores[5] < 1.0


def _assert_packed_equal(got: Packed, want: Packed) -> None:
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def test_encode_pairs_matches_direct_encoder():
    """Training tensors come from the converter's pair batches; they
    equal each pair encoded directly and packed, value for value, and
    an out-of-space pair is dropped from both."""
    ds = make_dataset(TPCH_LITE, 150, 150, seed=3)
    pairs = ds[:100] + [LabeledPair(_wide_plan(8, 1.0), _wide_plan(2, 2.0), True)] + ds[100:]
    assert len(pairs) > PAIR_BATCH
    encs, y = [], []
    for p in pairs:
        try:
            encs.append(encode_pair_agnostic(*(PlanRecord(q).canonical for q in (p.p1, p.p2))))
        except ValueError:
            continue
        y.append(float(p.label))
    assert len(encs) == len(pairs) - 1
    data = encode_pairs(pairs)
    _assert_packed_equal(data.a, concat([take(e, [0]) for e in encs]))
    _assert_packed_equal(data.b, concat([take(e, [1]) for e in encs]))
    np.testing.assert_array_equal(data.y, y)


def test_subset_matches_encoding_the_subset():
    """A minibatch gathered from the concatenated batches is bit-for-bit
    the tensors of its pairs encoded on their own, across batch
    boundaries and in any order."""
    ds = make_dataset(TPCH_LITE, 150, 150, seed=3)
    data = encode_pairs(ds)
    assert len(data) == len(ds) > PAIR_BATCH
    idx = np.random.default_rng(0).permutation(len(ds))[:70]
    assert (idx < PAIR_BATCH).any() and (idx >= PAIR_BATCH).any()
    got, want = data.subset(idx), encode_pairs([ds[k] for k in idx])
    _assert_packed_equal(got.a, want.a)
    _assert_packed_equal(got.b, want.b)
    np.testing.assert_array_equal(got.y, want.y)


@pytest.mark.parametrize("wide", [0, 1])
def test_encode_pairs_without_a_fitting_pair(wide):
    """No pair, or only a pair of 8-column plans (outside the 6×7
    space): the tensors hold zero pairs and training takes no step."""
    pairs = [LabeledPair(_wide_plan(8, 1.0), _wide_plan(8, 2.0), True)] * wide
    data = encode_pairs(pairs)
    assert len(data) == 0
    for side in (data.a, data.b):
        assert side.starts.shape == side.left.shape == side.right.shape == (0,)
        assert len(side.cols) == len(side.vals) == 0
    cfg = EMFConfig(d_in=DEFAULT_SPACE.nv_size, conv=(4, 4), fc=(4, 2), dropout=0.0, seed=3)
    model = EMF(cfg)
    before = model.to_bytes()
    train_emf(model, data, epochs=2)
    assert model.to_bytes() == before


def test_predict_scores_plan_pairs(emf_model):
    """``train.predict`` (Tables 3 and 4, SSFL) scores plan pairs in the
    converter's packed batches; it agrees with ``forward_pair`` on the
    same pairs' training tensors."""
    ds = make_dataset(TPCH_LITE, 150, 150, seed=3)
    data = encode_pairs(ds)
    assert len(data) > PAIR_BATCH  # more than one batch, concatenated
    pos, proba = predict(emf_model, [(p.p1, p.p2) for p in ds])
    np.testing.assert_array_equal(pos, np.arange(len(ds)))
    logits, _ = emf_model.forward_pair(data.a, data.b, train=False)
    np.testing.assert_allclose(proba, 1.0 / (1.0 + np.exp(-logits)), rtol=0, atol=TOL)


def test_pair_distances_match_single_trees(emf_model):
    """τ calibration embeds its pairs in packed pair batches; each
    pair's distance, and so τ, matches the pair's two plans embedded
    alone (the Table 1 pool's calibration pairs)."""
    pairs = [(p.p1, p.p2) for p in make_positive_pairs(TPCDS_LITE, 80, seed=101)]
    reference = np.array([np.linalg.norm(z[0] - z[1]) for z in
                          (single_embeddings(emf_model, pair) for pair in pairs)])
    dists = pair_distances(emf_model, pairs)
    assert not np.isnan(dists).any()
    assert np.abs(dists - reference).max() <= TOL
    tau = float(np.quantile(reference, TARGET_RECALL))
    # a few ulps of τ ≈ 4.4 is ~1e-15; a drift of 1e-11 is a change
    assert abs(calibrate_tau(emf_model, pairs) - tau) <= 1e-12


def test_emf_embeds_each_distinct_side_once(emf_model, pool, monkeypatch):
    """On every SF-group's VMF survivors, ``emf_scores`` equals each
    pair scored alone, and it embeds each distinct side once: a side is
    a plan under its pair's slots, told apart here by the plan and its
    direct pairwise encoding."""
    plans, tau = pool
    embedded = []
    real = EMF.predict_proba

    def counted(self, sides, first, second):
        embedded.append(len(sides.starts))
        return real(self, sides, first, second)

    distinct = n_pairs = 0
    for ids in sf_groups(plans).values():
        local = [plans[i] for i in ids]
        group = instance_group(records(local))
        pairs = sorted(group_pairs(emf_model, group, tau=tau)[0]) if len(ids) > 1 else []
        if not pairs:
            continue
        with monkeypatch.context() as m:
            m.setattr(EMF, "predict_proba", counted)
            scores, passed = emf_scores(emf_model, pairs, group)
        reference, _ = single_scores(emf_model, local, pairs)
        assert passed == 0 and np.abs(scores - reference).max() <= 1e-12
        canonical = [PlanRecord(p).canonical for p in local]
        sides = set()
        for i, j in pairs:
            both = encode_pair_agnostic(canonical[i], canonical[j])
            for k, tree in ((i, take(both, [0])), (j, take(both, [1]))):
                sides.add((k, densify(tree, DEFAULT_SPACE.nv_size).tobytes()))
        distinct += len(sides)
        n_pairs += len(pairs)
    assert n_pairs == 217
    assert sum(embedded) == distinct == 264
