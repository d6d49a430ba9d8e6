"""DB-agnostic encoding (§4.2): symbolization + matrix converter.

A pair (or SF-group) of subexpressions is generalized into a *pattern*:
referenced tables become symbols ``t0..t{n-1}`` (lexicographic order of
base-table names), referenced columns become ``t{i}.c{j}`` (lexicographic
within table). The resulting ``NV_α`` vector layout is the instance
layout over the symbolic vocabulary, so one trained EMF transfers across
schemas and workloads.

Two implementations, which must agree (tested):

- **direct** — re-encode the plans against the symbolic vocabulary;
- **converter** (§4.2.1) — transform already-computed instance matrices
  by masking unreferenced table/column one-hot positions and scattering
  the survivors into the fixed symbolic layout. This is the paper's
  "lightweight converter" that avoids the O(n²) re-encoding walk; a
  batched tensor variant (§4.2.2) converts many pairs at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import JOIN_TYPES, Plan, alias_map, base_tables
from repro.core.subexpr import referenced_columns
from repro.encoding.instance import TreeEnc, Vocab, encode_tree
from repro.solver.linexpr import OPS


@dataclass(frozen=True)
class AgnosticSpace:
    """Symbolic vocabulary bounds: ``n_tables`` symbols × ``cols_per_table``."""

    n_tables: int = 6
    cols_per_table: int = 7

    @property
    def vocab(self) -> Vocab:
        tables = tuple(f"t{i}" for i in range(self.n_tables))
        columns = tuple(
            f"t{i}.c{j}"
            for i in range(self.n_tables)
            for j in range(self.cols_per_table)
        )
        return Vocab(tables, columns)


DEFAULT_SPACE = AgnosticSpace()


def symbol_maps(
    plans: list[Plan], space: AgnosticSpace = DEFAULT_SPACE
) -> tuple[dict[str, str], dict[str, str]]:
    """(table → symbol, "table.col" → "symbol.col-symbol") for a group.

    Order is lexicographic on base names — the same order the instance
    vocabulary uses, which is what makes the matrix converter agree with
    direct symbolization.
    """
    tables = sorted({t for p in plans for t in base_tables(p)})
    if len(tables) > space.n_tables:
        raise ValueError(f"{len(tables)} tables exceed space {space.n_tables}")
    tmap = {t: f"t{i}" for i, t in enumerate(tables)}
    cols_by_table: dict[str, set[str]] = {t: set() for t in tables}
    for p in plans:
        amap = alias_map(p)
        for c in referenced_columns(p):
            cols_by_table[amap[c.alias]].add(c.column)
    cmap: dict[str, str] = {}
    for t in tables:
        cols = sorted(cols_by_table[t])
        if len(cols) > space.cols_per_table:
            raise ValueError(
                f"{len(cols)} referenced columns in {t} exceed space "
                f"{space.cols_per_table}"
            )
        for j, c in enumerate(cols):
            cmap[f"{t}.{c}"] = f"{tmap[t]}.c{j}"
    return tmap, cmap


def _symbolize_plan(plan: Plan, tmap: dict[str, str], cmap: dict[str, str]) -> Plan:
    """Rewrite a plan onto the symbolic vocabulary (direct path)."""
    from repro.core.plan import (
        BinOp,
        Col,
        Comparison,
        Const,
        Filter,
        Join,
        Project,
        Scan,
        alias_map,
    )

    amap = alias_map(plan)

    def re_col(c: Col) -> Col:
        sym = cmap[f"{amap[c.alias]}.{c.column}"]
        st, sc = sym.split(".", 1)
        return Col(st, sc)

    def re_expr(e):
        if isinstance(e, Col):
            return re_col(e)
        if isinstance(e, Const):
            return e
        return BinOp(e.op, re_expr(e.left), re_expr(e.right))

    def walk(n) -> Plan:
        if isinstance(n, Scan):
            s = tmap[n.table]
            return Scan(s, s)
        if isinstance(n, Filter):
            p = n.pred
            return Filter(Comparison(re_expr(p.lhs), p.op, re_expr(p.rhs)), walk(n.child))
        if isinstance(n, Join):
            p = n.pred
            return Join(
                walk(n.left), walk(n.right),
                Comparison(re_expr(p.lhs), p.op, re_expr(p.rhs)), n.jointype,
            )
        return Project(tuple(re_col(c) for c in n.cols), walk(n.child))

    return walk(plan)


def encode_group_agnostic(
    plans: list[Plan], space: AgnosticSpace = DEFAULT_SPACE
) -> list[TreeEnc]:
    """Direct n-ary db-agnostic encoding of a group of subexpressions.

    With ``len(plans) == 2`` this is the pairwise encoding of §4.2; the
    n-ary variant (§4.2.2) is what the VMF applies per SF-group.
    """
    tmap, cmap = symbol_maps(plans, space)
    vocab = space.vocab
    return [encode_tree(_symbolize_plan(p, tmap, cmap), vocab) for p in plans]


def encode_pair_agnostic(
    p1: Plan, p2: Plan, space: AgnosticSpace = DEFAULT_SPACE
) -> tuple[TreeEnc, TreeEnc]:
    a, b = encode_group_agnostic([p1, p2], space)
    return a, b


# --------------------------------------------------------------------------
# Matrix converter (§4.2.1): instance encodings → agnostic encodings
# --------------------------------------------------------------------------


def _referenced_indices(encs: list[TreeEnc], vocab: Vocab) -> tuple[np.ndarray, np.ndarray]:
    """(referenced table indices, referenced column indices), from the
    matrices alone — the column-wise union ``r`` of §4.2.1."""
    t_mask = np.zeros(vocab.n_t, dtype=bool)
    c_mask = np.zeros(vocab.n_c, dtype=bool)
    for e in encs:
        X = e.X
        t_mask |= X[:, vocab.off_table : vocab.off_table + vocab.n_t].any(axis=0)
        c_mask |= X[:, vocab.off_join_cl : vocab.off_join_cl + vocab.n_c].any(axis=0)
        c_mask |= X[:, vocab.off_join_cr : vocab.off_join_cr + vocab.n_c].any(axis=0)
        c_mask |= X[:, vocab.off_sel_c : vocab.off_sel_c + vocab.n_c].any(axis=0)
    return np.nonzero(t_mask)[0], np.nonzero(c_mask)[0]


def convert_group(
    encs: list[TreeEnc], vocab: Vocab, space: AgnosticSpace = DEFAULT_SPACE
) -> list[TreeEnc]:
    """Convert instance encodings of a group to db-agnostic encodings
    without touching the plans.

    Gathers the referenced table/column one-hot positions (union over
    the group — the ``m_T``/``m_C`` masks of §4.2.1) and scatters them
    into the symbolic layout. Agrees bit-for-bit with
    :func:`encode_group_agnostic` (tested) because both order symbols
    lexicographically by base name, which is also the instance
    vocabulary's column order.
    """
    t_idx, c_idx = _referenced_indices(encs, vocab)
    if len(t_idx) > space.n_tables:
        raise ValueError("referenced tables exceed agnostic space")
    av = space.vocab
    # table scatter: i-th referenced table (ascending) → symbol i
    t_new = np.arange(len(t_idx))
    # column scatter: j-th referenced column of symbol-table i → slot i*m + j
    table_of_col = np.array(
        [vocab.tables.index(key.split(".", 1)[0]) for key in vocab.columns]
    )
    t_sym_of = {int(old): int(new) for old, new in zip(t_idx, t_new)}
    c_new = np.empty(len(c_idx), dtype=np.int64)
    per_table_count: dict[int, int] = {}
    for k, old in enumerate(c_idx):
        ti = t_sym_of[int(table_of_col[old])]
        j = per_table_count.get(ti, 0)
        if j >= space.cols_per_table:
            raise ValueError("referenced columns exceed agnostic space")
        per_table_count[ti] = j + 1
        c_new[k] = ti * space.cols_per_table + j

    out: list[TreeEnc] = []
    for e in encs:
        X = e.X
        Xa = np.zeros((X.shape[0], av.nv_size), dtype=np.float32)
        # table segment
        Xa[:, av.off_table + t_new] = X[:, vocab.off_table + t_idx]
        # three column segments
        Xa[:, av.off_join_cl + c_new] = X[:, vocab.off_join_cl + c_idx]
        Xa[:, av.off_join_cr + c_new] = X[:, vocab.off_join_cr + c_idx]
        Xa[:, av.off_sel_c + c_new] = X[:, vocab.off_sel_c + c_idx]
        # op / join-type / const / null segments copy through
        Xa[:, av.off_join_op : av.off_join_op + len(OPS)] = X[
            :, vocab.off_join_op : vocab.off_join_op + len(OPS)
        ]
        Xa[:, av.off_join_jt : av.off_join_jt + len(JOIN_TYPES)] = X[
            :, vocab.off_join_jt : vocab.off_join_jt + len(JOIN_TYPES)
        ]
        Xa[:, av.off_sel_op : av.off_sel_op + len(OPS)] = X[
            :, vocab.off_sel_op : vocab.off_sel_op + len(OPS)
        ]
        Xa[:, av.off_const] = X[:, vocab.off_const]
        Xa[:, av.off_null] = X[:, vocab.off_null]
        out.append(TreeEnc(Xa, e.left.copy(), e.right.copy()))
    return out


def convert_pair(
    e1: TreeEnc, e2: TreeEnc, vocab: Vocab, space: AgnosticSpace = DEFAULT_SPACE
) -> tuple[TreeEnc, TreeEnc]:
    a, b = convert_group([e1, e2], vocab, space)
    return a, b
