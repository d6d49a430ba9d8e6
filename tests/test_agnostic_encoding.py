"""DB-agnostic encoding tests (§4.2) — slot vocabulary, converter parity,
transfer invariance. Covers the Table 2 symbolization example."""
import hashlib
import itertools

import numpy as np
import pytest

from repro.core.plan import rename_aliases
from repro.encoding.agnostic import (
    DEFAULT_SPACE,
    PAIR_BATCH,
    encode_group_agnostic,
    encode_pair_agnostic,
    group_agnostic,
    group_vocab,
    pack_group,
    pair_batches,
)
from repro.encoding.instance import concat, densify, encode_tree, schema_vocab, take
from repro.workload.generator import random_plans
from repro.workload.schema import TPCDS_LITE, TPCH_LITE, Schema, Table
from tests.test_plan import fig1_q1, fig1_q2


def test_group_vocab_table2_example():
    """Table 2: A→t1, B→t2 (0-indexed slots here), columns in
    lexicographic order within each table."""
    vocab = group_vocab({"B": ["y", "val", "joinKey"], "A": ["x", "joinKey", "val"]})
    assert vocab.tables == ("A", "B", None, None, None, None)
    slots = {k: vocab.col_idx(k) for k in vocab.columns if k is not None}
    assert slots == {
        "A.joinKey": 0, "A.val": 1, "A.x": 2,
        "B.joinKey": 7, "B.val": 8, "B.y": 9,
    }
    # the Figure 1 pair references exactly these columns
    X = densify(encode_pair_agnostic(fig1_q1(), fig1_q2()), vocab.nv_size)
    used = set()
    for off in (vocab.off("join_cl"), vocab.off("join_cr"), vocab.off("sel_c")):
        used |= set(np.nonzero(X[:, off : off + vocab.n_c].any(axis=0))[0].tolist())
    assert used == set(slots.values())


def test_group_vocab_bounds_enforced():
    group_vocab({f"T{i}": ["c"] for i in range(6)})
    group_vocab({"A": [f"c{j}" for j in range(7)]})
    with pytest.raises(ValueError):
        group_vocab({f"T{i}": ["c"] for i in range(7)})
    with pytest.raises(ValueError):
        group_vocab({"A": [f"c{j}" for j in range(8)]})


def assert_packed_equal(got, expect):
    for field, g, e in zip(expect._fields, got, expect):
        assert np.array_equal(g, e), field


def assert_converter_matches(encs, vocab, direct):
    """The group-wise slot map, and for a pair the pairwise one, give
    exactly the direct encodings ``direct`` of the plans behind
    ``encs`` (instance encodings over ``vocab``)."""
    group = pack_group(encs, vocab)
    assert_packed_equal(group_agnostic(group), direct)
    if len(encs) == 2:
        ((ks, sides, first, second),) = pair_batches(group, [(0, 1)])
        assert ks.tolist() == [0]
        assert_packed_equal(take(sides, first), take(direct, [0]))
        assert_packed_equal(take(sides, second), take(direct, [1]))


def test_agnostic_encoding_invariant_under_schema_renaming():
    """§4.2's motivation: renaming tables/columns must not change NV_α."""
    q1, q2 = fig1_q1(), fig1_q2()
    # rename A→C (alias-level rename keeps base tables; simulate a new
    # database by renaming aliases AND base tables consistently)
    from repro.core.plan import Filter, Join, Project, Scan

    def retable(p):
        if isinstance(p, Scan):
            return Scan({"A": "C", "B": "D"}[p.table], p.alias)
        if isinstance(p, Filter):
            return Filter(p.pred, retable(p.child))
        if isinstance(p, Join):
            return Join(retable(p.left), retable(p.right), p.pred, p.jointype)
        return Project(p.cols, retable(p.child))

    r1 = rename_aliases(retable(q1), {"A": "C", "B": "D"})
    r2 = rename_aliases(retable(q2), {"A": "C", "B": "D"})
    assert_packed_equal(encode_pair_agnostic(r1, r2), encode_pair_agnostic(q1, q2))


def test_converter_matches_direct_fig1():
    """Also with aliases that sort opposite to their tables (A AS z,
    B AS a), which order a predicate's columns differently."""
    vocab = schema_vocab_ab()
    for aliases in ({}, {"A": "z", "B": "a"}):
        q1 = rename_aliases(fig1_q1(), aliases)
        q2 = rename_aliases(fig1_q2(), aliases)
        encs = [encode_tree(q1), encode_tree(q2)]
        assert_converter_matches(encs, vocab, encode_pair_agnostic(q1, q2))


def schema_vocab_ab():
    from repro.encoding.instance import Vocab

    return Vocab(
        ("A", "B"),
        ("A.joinKey", "A.val", "A.x", "B.joinKey", "B.val", "B.y"),
    )


@pytest.mark.parametrize("schema", [TPCH_LITE, TPCDS_LITE], ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_converter_matches_direct_random_pairs(schema, seed):
    """The §4.2.1 converter must agree bit-for-bit with re-encoding."""
    vocab = schema_vocab(schema)
    plans = random_plans(schema, 12, seed=seed)
    for i in range(0, 10, 2):
        p1, p2 = plans[i], plans[i + 1]
        try:
            direct = encode_pair_agnostic(p1, p2)
        except ValueError:
            continue  # exceeds agnostic space — skip
        assert_converter_matches([encode_tree(p1), encode_tree(p2)], vocab, direct)


def test_nary_group_encoding_matches_direct():
    vocab = schema_vocab(TPCH_LITE)
    plans = random_plans(TPCH_LITE, 6, seed=5)
    assert_converter_matches(
        [encode_tree(p) for p in plans], vocab, encode_group_agnostic(plans)
    )


@pytest.mark.parametrize("schema", [TPCH_LITE, TPCDS_LITE], ids=lambda s: s.name)
def test_pair_batches_match_direct_pairs(schema):
    """Every pair of a group gets its own slot map inside a batch;
    out-of-space pairs are left out of the batches."""
    vocab = schema_vocab(schema)
    plans = random_plans(schema, 24, seed=8)  # 276 pairs
    group = pack_group([encode_tree(p) for p in plans], vocab)
    pairs = list(itertools.combinations(range(len(plans)), 2))
    direct = {}
    for k, (i, j) in enumerate(pairs):
        try:
            direct[k] = encode_pair_agnostic(plans[i], plans[j])
        except ValueError:
            pass
    seen = []
    for ks, sides, first, second in pair_batches(group, pairs):
        assert len(ks) <= PAIR_BATCH
        seen += ks.tolist()
        assert_packed_equal(take(sides, first), concat([take(direct[k], [0]) for k in ks]))
        assert_packed_equal(take(sides, second), concat([take(direct[k], [1]) for k in ks]))
    assert seen == sorted(direct)
    assert len(seen) > PAIR_BATCH  # several batches


def test_pairwise_encoding_depends_on_partner():
    """§4.2.1: the encoding of one subexpression differs by partner."""
    plans = random_plans(TPCH_LITE, 30, seed=6)
    # find partners with different table sets
    from repro.core.plan import base_tables

    p = plans[0]
    partners = [q for q in plans[1:] if base_tables(q) != base_tables(p)]
    same = [q for q in plans[1:] if base_tables(q) == base_tables(p)]
    assert partners and same
    d = DEFAULT_SPACE.nv_size  # fixed NV_α size
    e_diff = densify(take(encode_pair_agnostic(p, partners[0]), [0]), d)
    e_same = densify(take(encode_pair_agnostic(p, same[0]), [0]), d)
    assert not np.array_equal(e_diff, e_same)


# 9 tables of 10 columns in a chain: groups can exceed the agnostic
# space's 6 tables and its 7 columns per table.
WIDE = Schema(
    "wide",
    tuple(Table(f"w{i}", tuple(f"c{j}" for j in range(10))) for i in range(9)),
    tuple((f"w{i}", f"c{i}", f"w{i + 1}", f"c{9 - i}") for i in range(8)),
)


@pytest.mark.parametrize(
    "pool", [None, ("w3", "w4", "w5")], ids=["all-tables", "three-tables"]
)
def test_encoders_agree_outside_the_space(pool):
    """Direct encoding and the converter raise on the same groups and
    agree bit-for-bit on the rest. Groups over all nine tables exceed
    the table bound; groups over three tables can only exceed the
    column bound."""
    vocab = schema_vocab(WIDE)
    plans = random_plans(WIDE, 120, seed=7, tables=pool)
    raised = kept = 0
    start = 0
    for size in itertools.cycle(range(2, 9)):
        group = plans[start : start + size]
        if len(group) < size:
            break
        start += size
        encs = [encode_tree(p) for p in group]
        try:
            direct = encode_group_agnostic(group)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                group_agnostic(pack_group(encs, vocab))
            if size == 2:
                assert list(pair_batches(pack_group(encs, vocab), [(0, 1)])) == []
            continue
        kept += 1
        assert_converter_matches(encs, vocab, direct)
    assert raised and kept


# sha256 prefixes of the dense output of the three agnostic encoders on
# the Table 1 pool's SF-groups, pinned from the dense node-matrix
# encoders that came before node slots
DENSE_DIGESTS = {
    "group_agnostic": "a76cfe83d391962c",
    "pair_batches": "94e10da190124329",
    "encode_pair_agnostic": "005c4216510ff33f",
}


def _digest_update(h, arrays) -> None:
    for a in map(np.asarray, arrays):
        # −0.0 reads as 0.0: the dense matrices held a few, slots hold none
        a = a.astype(np.float64) + 0.0 if a.dtype.kind == "f" else a.astype(np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


def test_dense_encodings_are_pinned():
    """Densified, ``group_agnostic``, ``pair_batches`` and
    ``encode_pair_agnostic`` give bit for bit the node matrices, child
    rows and pair positions pinned in :data:`DENSE_DIGESTS` on every
    SF-group of the Table 1 pool, all pairs included."""
    from repro.core.record import PlanRecord, records
    from repro.encoding.agnostic import instance_group
    from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS
    from repro.filters.schema_filter import sf_groups
    from repro.workload.labeler import make_planted_workload

    d = DEFAULT_SPACE.nv_size
    w = make_planted_workload(TPCDS_LITE, n_subexpr=320, n_equiv=50, seed=100,
                              table_sets=TABLE_SETS, max_proj=2, family_tiers=FAMILY_TIERS)
    h = {name: hashlib.sha256() for name in DENSE_DIGESTS}

    def dense(t):
        return [t.starts, densify(t, d), t.left, t.right]

    for ids in sf_groups(w.plans).values():
        if len(ids) < 2:
            continue
        plans = [w.plans[i] for i in ids]
        group = instance_group(records(plans))
        try:
            _digest_update(h["group_agnostic"], dense(group_agnostic(group)))
        except ValueError:
            _digest_update(h["group_agnostic"], [np.array([-1])])
        pairs = list(itertools.combinations(range(len(plans)), 2))
        for ks, sides, first, second in pair_batches(group, pairs):
            _digest_update(h["pair_batches"],
                           [ks, *dense(take(sides, first)), *dense(take(sides, second))])
        canonical = [PlanRecord(p).canonical for p in plans]
        for i, j in pairs:
            try:
                both = encode_pair_agnostic(canonical[i], canonical[j])
            except ValueError:
                _digest_update(h["encode_pair_agnostic"], [np.array([-1])])
                continue
            for t in (take(both, [0]), take(both, [1])):
                _digest_update(h["encode_pair_agnostic"], dense(t)[1:])
    assert {name: x.hexdigest()[:16] for name, x in h.items()} == DENSE_DIGESTS
