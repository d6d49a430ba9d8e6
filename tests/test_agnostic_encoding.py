"""DB-agnostic encoding tests (§4.2) — slot vocabulary, converter parity,
transfer invariance. Covers the Table 2 symbolization example."""
import itertools

import numpy as np
import pytest

from repro.core.plan import rename_aliases
from repro.encoding.agnostic import (
    convert_group,
    convert_pair,
    encode_group_agnostic,
    encode_pair_agnostic,
    group_vocab,
)
from repro.encoding.instance import encode_tree, schema_vocab
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
    X = np.vstack([e.X for e in encode_pair_agnostic(fig1_q1(), fig1_q2())])
    used = set()
    for off in (vocab.off_join_cl, vocab.off_join_cr, vocab.off_sel_c):
        used |= set(np.nonzero(X[:, off : off + vocab.n_c].any(axis=0))[0].tolist())
    assert used == set(slots.values())


def test_group_vocab_bounds_enforced():
    group_vocab({f"T{i}": ["c"] for i in range(6)})
    group_vocab({"A": [f"c{j}" for j in range(7)]})
    with pytest.raises(ValueError):
        group_vocab({f"T{i}": ["c"] for i in range(7)})
    with pytest.raises(ValueError):
        group_vocab({"A": [f"c{j}" for j in range(8)]})


def test_agnostic_encoding_invariant_under_schema_renaming():
    """§4.2's motivation: renaming tables/columns must not change NV_α."""
    q1, q2 = fig1_q1(), fig1_q2()
    e1, e2 = encode_pair_agnostic(q1, q2)
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
    f1, f2 = encode_pair_agnostic(r1, r2)
    assert np.array_equal(e1.X, f1.X)
    assert np.array_equal(e2.X, f2.X)


def test_converter_matches_direct_fig1():
    """Also with aliases that sort opposite to their tables (A AS z,
    B AS a), which order a predicate's columns differently."""
    vocab = schema_vocab_ab()
    for aliases in ({}, {"A": "z", "B": "a"}):
        q1 = rename_aliases(fig1_q1(), aliases)
        q2 = rename_aliases(fig1_q2(), aliases)
        c1, c2 = convert_pair(encode_tree(q1, vocab), encode_tree(q2, vocab), vocab)
        d1, d2 = encode_pair_agnostic(q1, q2)
        assert np.array_equal(c1.X, d1.X)
        assert np.array_equal(c2.X, d2.X)
        assert np.array_equal(c1.left, d1.left)


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
            d1, d2 = encode_pair_agnostic(p1, p2)
        except ValueError:
            continue  # exceeds agnostic space — skip
        c1, c2 = convert_pair(encode_tree(p1, vocab), encode_tree(p2, vocab), vocab)
        assert np.array_equal(c1.X, d1.X), f"pair {i} mismatch"
        assert np.array_equal(c2.X, d2.X)


def test_nary_group_encoding_matches_direct():
    vocab = schema_vocab(TPCH_LITE)
    plans = random_plans(TPCH_LITE, 6, seed=5)
    direct = encode_group_agnostic(plans)
    conv = convert_group([encode_tree(p, vocab) for p in plans], vocab)
    for d, c in zip(direct, conv):
        assert np.array_equal(d.X, c.X)


def test_pairwise_encoding_depends_on_partner():
    """§4.2.1: the encoding of one subexpression differs by partner."""
    plans = random_plans(TPCH_LITE, 30, seed=6)
    # find partners with different table sets
    from repro.core.plan import base_tables

    p = plans[0]
    partners = [q for q in plans[1:] if base_tables(q) != base_tables(p)]
    same = [q for q in plans[1:] if base_tables(q) == base_tables(p)]
    assert partners and same
    e_diff, _ = encode_pair_agnostic(p, partners[0])
    e_same, _ = encode_pair_agnostic(p, same[0])
    assert e_diff.X.shape == e_same.X.shape  # fixed NV_α size
    assert not np.array_equal(e_diff.X, e_same.X)


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
        encs = [encode_tree(p, vocab) for p in group]
        try:
            direct = encode_group_agnostic(group)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                convert_group(encs, vocab)
            continue
        kept += 1
        for d, c in zip(direct, convert_group(encs, vocab)):
            assert np.array_equal(d.X, c.X)
            assert np.array_equal(d.left, c.left)
            assert np.array_equal(d.right, c.right)
    assert raised and kept
