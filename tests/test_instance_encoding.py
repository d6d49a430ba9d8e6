"""Instance-based NV encoding tests (§4.1)."""
import numpy as np
import pytest

from repro.core.plan import JOIN_TYPES, Join, bfs
from repro.core.record import PlanRecord
from repro.encoding.instance import (
    SENTINEL,
    Vocab,
    densify,
    encode_tree,
    norm_const,
    pack_encs,
    schema_vocab,
)
from repro.solver.linexpr import OPS
from repro.workload.generator import random_plans
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from tests.test_plan import fig1_q1


def _dense(plan, v: Vocab) -> np.ndarray:
    """The dense node matrix of ``plan`` over ``v``."""
    return densify(pack_encs([encode_tree(plan)], v)[1], v.nv_size)


def _ab_vocab() -> Vocab:
    return Vocab(
        ("A", "B"),
        ("A.joinKey", "A.val", "A.x", "B.joinKey", "B.val", "B.y"),
    )


def test_nv_size_formula():
    v = schema_vocab(TPCH_LITE)
    n_c = sum(len(t.columns) for t in TPCH_LITE.tables)
    assert v.n_c == n_c
    assert v.nv_size == 4 + 3 * n_c + 2 * len(OPS) + len(JOIN_TYPES) + 2


def test_segments_partition_vector():
    v = _ab_vocab()
    assert v.off("join_cl") == v.n_t
    assert v.off("sel_c") == v.n_t + 2 * v.n_c + len(OPS) + len(JOIN_TYPES)
    assert v.off("null") == v.nv_size - 1


def test_encode_shapes_and_children():
    v = _ab_vocab()
    enc = encode_tree(fig1_q1())
    m = len(list(bfs(fig1_q1())))
    assert _dense(fig1_q1(), v).shape == (m, v.nv_size)
    # BFS: Project, Filter, Filter, Join, ScanA, ScanB
    assert enc.left.tolist() == [1, 2, 3, 4, -1, -1]
    assert enc.right.tolist() == [-1, -1, -1, 5, -1, -1]


def test_scan_nodes_one_hot_table_only():
    v = _ab_vocab()
    X = _dense(fig1_q1(), v)
    for i in (4, 5):
        row = X[i]
        assert row[: v.n_t].sum() == 1.0
        assert row[v.n_t :].sum() == 0.0


def test_join_node_segments():
    v = _ab_vocab()
    row = _dense(fig1_q1(), v)[3]  # the Join node
    cl = row[v.off("join_cl") : v.off("join_cl") + v.n_c]
    cr = row[v.off("join_cr") : v.off("join_cr") + v.n_c]
    assert cl.sum() == 1.0 and cr.sum() == 1.0
    assert cl[v.col_idx("A.joinKey")] == 1.0
    assert cr[v.col_idx("B.joinKey")] == 1.0
    assert row[v.off("join_op") + OPS.index("=")] == 1.0


@pytest.mark.parametrize("jointype", JOIN_TYPES)
def test_canonical_encoding_keeps_the_join_type(jointype):
    """A plan outside the SPJ fragment is encoded as written, so a left
    or semi join keeps its own join-type slot."""
    v = _ab_vocab()
    plan = PlanRecord(fig1_q1(jointype)).canonical
    X = _dense(plan, v)
    (i,) = [i for i, n in enumerate(bfs(plan)) if isinstance(n, Join)]
    slots = X[i, v.off("join_jt") : v.off("join_jt") + len(JOIN_TYPES)]
    assert slots.tolist() == [float(t == jointype) for t in JOIN_TYPES]


def test_single_column_filter_in_select_segment():
    v = _ab_vocab()
    row = _dense(fig1_q1(), v)[1]  # Filter B.val > 10
    assert row[v.off("sel_c") + v.col_idx("B.val")] == 1.0
    assert row[v.off("sel_op") + OPS.index(">")] == 1.0
    assert abs(row[v.off("const")] - norm_const(10.0)) < 1e-6


def test_two_column_filter_uses_join_segment_with_const():
    v = _ab_vocab()
    row = _dense(fig1_q1(), v)[2]  # Filter A.val > B.val + 10
    assert row[v.off("join_cl") + v.col_idx("A.val")] == 1.0
    assert row[v.off("join_cr") + v.col_idx("B.val")] == 1.0
    assert abs(row[v.off("const")] - norm_const(10.0)) < 1e-6
    # but it is not a join: join-type segment zero
    assert row[v.off("join_jt") : v.off("join_jt") + len(JOIN_TYPES)].sum() == 0.0


def test_project_multi_hot():
    v = _ab_vocab()
    row = _dense(fig1_q1(), v)[0]
    sel = row[v.off("sel_c") : v.off("sel_c") + v.n_c]
    assert abs(sel.sum() - 2.25) < 1e-6  # 1.0 + (1 + 0.25): position-weighted
    assert sel[v.col_idx("A.x")] == 1.0  # position 0
    assert sel[v.col_idx("B.y")] == 1.25  # position 1


def test_project_position_weights_distinguish_order():
    from repro.core.plan import Col, Project

    v = _ab_vocab()
    child = fig1_q1().child
    xy = _dense(Project((Col("A", "x"), Col("B", "y")), child), v)
    yx = _dense(Project((Col("B", "y"), Col("A", "x")), child), v)
    assert not np.array_equal(xy[0], yx[0])


def test_norm_const_bounded_and_monotone():
    vals = [-1e6, -60, -10, 0, 10, 60, 1e6]
    out = [norm_const(x) for x in vals]
    assert all(-2 <= x <= 2 for x in out)
    assert out == sorted(out)
    # linear (not saturating) inside the fuzzer's constant range:
    assert abs((norm_const(40) - norm_const(30)) - 10 / 64) < 1e-9


def test_encoding_deterministic_across_random_plans():
    v = schema_vocab(TPCDS_LITE)
    for p in random_plans(TPCDS_LITE, 15, seed=8):
        a, b = encode_tree(p), encode_tree(p)
        assert np.array_equal(_dense(p, v), _dense(p, v))
        assert np.array_equal(a.left, b.left)
        assert _dense(p, v).shape[1] == v.nv_size


def _entries(plan, v: Vocab, row: int) -> dict[int, float]:
    """Node ``row``'s placed entries over ``v``: column → value."""
    _, trees = pack_encs([encode_tree(plan)], v)
    used = trees.cols[row] != SENTINEL
    return dict(zip(trees.cols[row, used].tolist(), trees.vals[row, used].tolist()))


def test_project_duplicate_column_sums_into_one_entry():
    """A column projected twice is one entry holding the sum of its
    position weights, as the dense ``+=`` held it."""
    from repro.core.plan import Col, Project

    v = _ab_vocab()
    plan = Project((Col("A", "x"), Col("B", "y"), Col("A", "x")), fig1_q1().child)
    assert _entries(plan, v, 0) == {
        v.off("sel_c") + v.col_idx("A.x"): 1.0 + 1.5,
        v.off("sel_c") + v.col_idx("B.y"): 1.25,
    }


def test_zero_values_are_not_entries():
    """A one-column predicate's null slot and a constant that normalizes
    to 0 store no entry."""
    from repro.core.plan import Col, Comparison, Const, Filter, Project, Scan

    v = _ab_vocab()
    plan = Project((Col("A", "x"),), Filter(
        Comparison(Col("A", "val"), ">", Const(0.0)), Scan("A", "A")))
    assert _entries(plan, v, 1) == {
        v.off("sel_c") + v.col_idx("A.val"): 1.0,
        v.off("sel_op") + OPS.index(">"): 1.0,
    }


def test_values_keep_float32_rounding():
    """Entry values are the float32 values the dense node matrix held,
    widened to float64."""
    from repro.core.plan import Col, Comparison, Const, Filter, Project, Scan

    v = _ab_vocab()
    pred = Comparison(Col("A", "val"), ">", Const(1.1))
    plan = Project((Col("A", "x"),), Filter(pred, Scan("A", "A")))
    want = norm_const(-float(PlanRecord(plan).constraint(pred).expr.const))
    got = _entries(plan, v, 1)[v.off("const")]
    assert got == float(np.float32(want)) and got != want
