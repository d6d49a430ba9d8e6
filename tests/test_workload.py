"""Fuzzer + rewrite-rule tests.

The load-bearing property: every rewrite family produces a variant the
AV proves equivalent AND the DuckDB model checker cannot distinguish.
This is the soundness chain the whole evaluation rests on.
"""
import hashlib

import numpy as np
import pytest

from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Project,
    Scan,
    base_tables,
    compose,
    decompose,
    to_json,
)
from repro.core.record import records
from repro.core.sqlgen import to_sql
from repro.verifier.av import Verifier, verify
from repro.verifier.model_check import counterexample
from repro.workload.generator import random_base_plan, random_plans
from repro.workload.rewrites import (
    IMPLICATION,
    NORMALIZATION,
    REWRITES,
    SYNTACTIC,
    equivalent_variant,
)
from repro.workload.schema import TPCDS_LITE, TPCH_LITE, random_schema
from tests.test_plan import fig1_q1


def test_random_plans_deterministic():
    a = random_plans(TPCH_LITE, 10, seed=7)
    b = random_plans(TPCH_LITE, 10, seed=7)
    assert [to_json(p) for p in a] == [to_json(p) for p in b]


def test_random_plans_valid_sql():
    for p in random_plans(TPCDS_LITE, 20, seed=1):
        assert isinstance(p, Project)
        to_sql(p)  # raises if malformed


def test_random_plans_table_variety():
    counts = {len(base_tables(p)) for p in random_plans(TPCH_LITE, 40, seed=3)}
    assert {1, 2, 3} <= counts


def test_random_schema_connected():
    s = random_schema(11)
    reachable = {s.tables[0].name}
    frontier = [s.tables[0].name]
    while frontier:
        t = frontier.pop()
        for nb, _, _ in s.neighbors(t):
            if nb not in reachable:
                reachable.add(nb)
                frontier.append(nb)
    assert reachable == {t.name for t in s.tables}


def test_decompose_compose_roundtrip_equivalence():
    g = np.random.default_rng(5)
    for _ in range(5):
        p = random_base_plan(TPCH_LITE, g)
        aliases, jps, fps, proj = decompose(p)
        rebuilt = compose(aliases, jps, fps, proj)
        assert verify(p, rebuilt)


def _filter_linked():
    """A join whose predicate references ``A`` only, as ``eq_substitute``
    can leave one: only the filter ``A.k = B.k`` links ``B``."""
    join = Join(Scan("A", "A"), Scan("B", "B"), Comparison(Col("A", "x"), "<", Col("A", "v")))
    return Project(
        (Col("A", "x"), Col("B", "y")),
        Filter(Comparison(Col("A", "k"), "=", Col("B", "k")), join),
    )


@pytest.mark.parametrize("order", [["A", "B"], ["B", "A"]])
def test_compose_joins_an_alias_through_a_linking_filter(order):
    p = _filter_linked()
    rebuilt = compose(*decompose(p), order=order)
    assert verify(p, rebuilt)
    assert counterexample(p, rebuilt, trials=4) is None


def test_compose_still_refuses_a_cross_product():
    cross = _filter_linked().child.child  # the join alone: nothing links B
    with pytest.raises(ValueError, match="disconnected"):
        compose(*decompose(Project((Col("A", "x"),), cross)), order=["A", "B"])


def test_planted_pool_with_a_filter_linked_join_builds():
    """At 1,280 plans and seed 107, ``rw_remove_redundant`` rebuilds a
    plan whose second alias only a filter links; the pool builds, and
    the AV proves every planted pair."""
    from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS
    from repro.workload.labeler import make_planted_workload

    w = make_planted_workload(
        TPCDS_LITE, n_subexpr=1280, n_equiv=200, seed=107,
        table_sets=TABLE_SETS, max_proj=2, family_tiers=FAMILY_TIERS,
    )
    v, recs = Verifier(), records(w.plans)
    assert len(w.planted) == 200
    assert all(v.equivalent(recs[i], recs[j]) for i, j in w.planted)


@pytest.mark.parametrize("family", sorted(REWRITES))
def test_each_rewrite_family_sound(family):
    """For each family: find plans where it applies; variant must be
    AV-equivalent and model-check-indistinguishable."""
    g = np.random.default_rng(hash(family) % 2**31)
    applied = 0
    for i in range(60):
        p = random_base_plan(TPCH_LITE, g)
        v = REWRITES[family](p, g)
        if v is None or v == p:
            continue
        applied += 1
        assert verify(p, v), f"{family} broke AV-equivalence on {p}"
        cx = counterexample(p, v, trials=3, rows=30, seed=i)
        assert cx is None, f"{family} changed results (seed {cx})"
        if applied >= 4:
            break
    assert applied > 0, f"{family} never applied in 60 tries"


def _left_join_plan():
    """Figure 1's Q1 as a left join, with a third, redundant filter
    (``A.val > 20`` follows from the other two), so every rule would
    find something to rewrite."""
    q = fig1_q1("left")
    redundant = Comparison(Col("A", "val"), ">", Const(20.0))
    return Project(q.cols, Filter(redundant, q.child))


@pytest.mark.parametrize("family", sorted(REWRITES))
def test_rewrites_decline_plans_outside_the_fragment(family):
    """No rule returns a variant of a non-inner-join plan: rebuilding it
    as inner, or reasoning over its join predicate as a filter, is
    unsound."""
    g = np.random.default_rng(0)
    p = _left_join_plan()
    assert all(REWRITES[family](p, g) is None for _ in range(20))


def test_equivalent_variant_leaves_plans_outside_the_fragment():
    p = _left_join_plan()
    v, applied = equivalent_variant(p, np.random.default_rng(0))
    assert v is p and applied == []


def test_equivalent_variant_chains_sound():
    g = np.random.default_rng(42)
    checked = 0
    for i in range(12):
        p = random_base_plan(TPCDS_LITE, g)
        v, applied = equivalent_variant(p, g, steps=4)
        if not applied:
            continue
        checked += 1
        assert verify(p, v)
        assert counterexample(p, v, trials=2, rows=30, seed=i) is None
    assert checked >= 8


def test_variant_changes_surface_form():
    g = np.random.default_rng(9)
    changed = 0
    for _ in range(10):
        p = random_base_plan(TPCH_LITE, g)
        v, applied = equivalent_variant(p, g, steps=3)
        if applied and to_json(v) != to_json(p):
            changed += 1
    assert changed >= 6


def test_family_partition_complete():
    assert set(SYNTACTIC) | set(NORMALIZATION) | set(IMPLICATION) == set(REWRITES)
    assert not (set(SYNTACTIC) & set(NORMALIZATION))
    assert not (set(NORMALIZATION) & set(IMPLICATION))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_generated_inputs_are_pinned():
    """The generated inputs of the Table 1 pool, the ablation pool, the
    caching workload and the EMF training set are pinned: sha256 over
    the plans' ``to_json`` lines, plus the sorted planted pairs or the
    labels.

    A digest may change only together with a ``default_model`` cache-key
    bump (the cached EMF is trained on the training set) and a new
    benchmark baseline (the benchmark times the Table 1 pool), as the
    ``rw_remove_redundant`` fix of ROADMAP item 3 will need."""
    from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS
    from repro.workload.labeler import (
        make_dataset,
        make_planted_workload,
        make_reuse_workload,
    )

    def planted(n, n_equiv, seed):
        return make_planted_workload(
            TPCDS_LITE, n_subexpr=n, n_equiv=n_equiv, seed=seed,
            table_sets=TABLE_SETS, max_proj=2, family_tiers=FAMILY_TIERS,
        )

    workloads = {
        "table1": planted(320, 50, 100),
        "ablation": planted(160, 32, 500),
        "caching": make_reuse_workload(
            TPCH_LITE, n_classes=6, n_singletons=6, seed=600
        ),
    }
    got = {
        name: (_digest(map(to_json, w.plans)),
               _digest([repr(sorted(w.planted))]))
        for name, w in workloads.items()
    }
    ds = make_dataset(TPCH_LITE, 2000, 2000, seed=10)
    got["emf-train"] = _digest(
        to_json(p.p1) + to_json(p.p2) + str(p.label) for p in ds
    )
    assert got == {
        "table1": ("8410a11fdccaab79", "130de57108b129d5"),
        "ablation": ("a44a98c93dc04070", "5ce32ed16149efbc"),
        "caching": ("50f88db27623d77c", "0ddd3c88d9480317"),
        "emf-train": "b49b8b8a9a992a20",
    }
