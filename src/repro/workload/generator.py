"""SPJ query fuzzer — the repo's AMOEBA [34] substitute.

AMOEBA's role in the paper is to produce a diverse set of *base* SPJ
queries on a schema; WeTune-style rewrite rules then derive equivalent
variants (:mod:`repro.workload.rewrites`). This fuzzer walks the schema
join graph to pick 1–3 tables, adds equi-join predicates along edges,
sprinkles selection predicates (column-vs-constant and
column-vs-column±constant), and projects 1–4 referenced columns; the
plan itself is built by :func:`repro.core.plan.compose`, left-deep in
walk order with the selections stacked in draw order.

All randomness flows through a caller-supplied ``numpy`` Generator, so
workloads are reproducible from a seed.
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import BinOp, Col, Comparison, Const, Plan, compose
from repro.workload.schema import Schema

_SEL_OPS = ["<", "<=", ">", ">=", "="]
MAX_TABLES = 3
MAX_SELECTIONS = 4


def _pick(g: np.random.Generator, xs):
    return xs[int(g.integers(0, len(xs)))]


def random_base_plan(
    schema: Schema,
    g: np.random.Generator,
    *,
    min_tables: int = 1,
    tables: tuple[str, ...] | None = None,
    max_proj: int = 4,
) -> Plan:
    """One random SPJ plan with a root Project.

    Tables are distinct (no self-joins) — this keeps the verifier's
    alias-bijection search small and matches the SPJ-with-conjunctive-
    predicates scope the paper evaluates on. ``tables`` restricts the
    join-graph walk to a pool (used to control SF-group density: the
    §7.5 workloads concentrate many subexpressions on few table sets).
    """
    # --- pick a connected set of tables by walking the join graph ----
    pool = tables or tuple(t.name for t in schema.tables)
    start = _pick(g, [t for t in pool])
    chosen = [start]
    join_preds: list[Comparison] = []
    target = min(int(g.integers(min_tables, MAX_TABLES + 1)), len(pool))
    while len(chosen) < target:
        frontier = [
            (t, nb, c_t, c_nb)
            for t in chosen
            for nb, c_t, c_nb in schema.neighbors(t)
            if nb not in chosen and nb in pool
        ]
        if not frontier:
            break
        t, nb, c_t, c_nb = _pick(g, frontier)
        chosen.append(nb)
        join_preds.append(
            Comparison(Col(t, c_t), "=", Col(nb, c_nb))
        )
    # --- selection predicates ---------------------------------------
    sel_preds: list[Comparison] = []
    n_sel = int(g.integers(1, MAX_SELECTIONS + 1))
    for _ in range(n_sel):
        t = _pick(g, chosen)
        col = Col(t, _pick(g, schema.table(t).columns))
        op = _pick(g, _SEL_OPS)
        if len(chosen) > 1 and g.random() < 0.3:
            # column-vs-column(+const) predicate across tables
            t2 = _pick(g, [c for c in chosen if c != t])
            col2 = Col(t2, _pick(g, schema.table(t2).columns))
            off = int(g.integers(-15, 16))
            rhs = BinOp("+", col2, Const(float(off))) if off else col2
            sel_preds.append(Comparison(col, op, rhs))
        else:
            v = float(int(g.integers(-20, 51)))
            sel_preds.append(Comparison(col, op, Const(v)))

    # --- projection ---------------------------------------------------
    n_proj = int(g.integers(1, max_proj + 1))
    cols = []
    for _ in range(n_proj):
        t = _pick(g, chosen)
        cols.append(Col(t, _pick(g, schema.table(t).columns)))
    # Aliases equal table names (tables are distinct).
    return compose({t: t for t in chosen}, join_preds, sel_preds, tuple(cols))


def random_plans(schema: Schema, n: int, *, seed: int = 0, **kw) -> list[Plan]:
    g = np.random.default_rng(seed)
    return [random_base_plan(schema, g, **kw) for _ in range(n)]
