"""Instance-based node-vector (NV) encoding (§4.1, Figure 3).

Each logical plan node becomes a fixed-size vector with three segments:

- ``V_table``  — one-hot over workload tables ``T_W`` (scan nodes);
- ``V_join``   — one-hot left column ⊕ op ⊕ one-hot right column ⊕
  one-hot join type (join nodes and two-column filter predicates);
- ``V_select`` — one-hot column ⊕ op ⊕ norm(v) ⊕ null(v) (one-column
  predicates; projection nodes set a multi-hot over projected columns).

``|NV| = |T_W| + 3·|C_W| + 2·|O_W| + |J_W| + 2`` exactly as in §4.1.

Deviations, documented per DESIGN.md:

- Predicates are canonicalized constraints over linear expressions, so
  a "join-style" predicate may carry a constant (``A.val - B.val > 10``);
  the constant lands in the select segment's constant slot.
- ``norm(v)`` is the fixed scaling ``clip(v/64, −2, 2)``
  (:func:`norm_const`) rather than workload min-max: db-agnostic
  transfer (§4.2) forbids workload-global statistics.
- Columns are identified by *base table*, so self-joins alias-collapse;
  the workload generator emits distinct-table joins only.

The tree is rendered as a BFS node matrix (§3.2) plus per-node child
indices, which is exactly what the tree-convolution layers consume.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.plan import (
    Filter,
    Join,
    JOIN_TYPES,
    Plan,
    Project,
    Scan,
    alias_map,
    bfs,
)
from repro.solver.linexpr import OPS, Constraint


@dataclass(frozen=True)
class Vocab:
    """Encoding vocabulary: tables, columns (grouped by table), ops, joins.

    A db-agnostic slot vocabulary (:func:`repro.encoding.agnostic.group_vocab`)
    holds ``None`` in the slots its group leaves unused. Sizes and
    segment offsets are computed on first access.
    """

    tables: tuple[str | None, ...]
    columns: tuple[str | None, ...]  # "table.col", sorted by (table, col)

    @cached_property
    def n_t(self) -> int:
        return len(self.tables)

    @cached_property
    def n_c(self) -> int:
        return len(self.columns)

    @cached_property
    def nv_size(self) -> int:
        return self.n_t + 3 * self.n_c + 2 * len(OPS) + len(JOIN_TYPES) + 2

    # segment offsets ------------------------------------------------
    @cached_property
    def off_table(self) -> int:
        return 0

    @cached_property
    def off_join_cl(self) -> int:
        return self.n_t

    @cached_property
    def off_join_op(self) -> int:
        return self.off_join_cl + self.n_c

    @cached_property
    def off_join_cr(self) -> int:
        return self.off_join_op + len(OPS)

    @cached_property
    def off_join_jt(self) -> int:
        return self.off_join_cr + self.n_c

    @cached_property
    def off_sel_c(self) -> int:
        return self.off_join_jt + len(JOIN_TYPES)

    @cached_property
    def off_sel_op(self) -> int:
        return self.off_sel_c + self.n_c

    @cached_property
    def off_const(self) -> int:
        return self.off_sel_op + len(OPS)

    @cached_property
    def off_null(self) -> int:
        return self.off_const + 1

    def table_idx(self, t: str) -> int:
        return self.tables.index(t)

    def col_idx(self, key: str) -> int:
        return self.columns.index(key)


def schema_vocab(schema) -> Vocab:
    tables = tuple(sorted(t.name for t in schema.tables))
    columns = tuple(
        f"{t}.{c}"
        for t in tables
        for c in sorted(schema.table(t).columns)
    )
    return Vocab(tables, columns)


def norm_const(v: float) -> float:
    """Fixed linear scaling clipped to [−2, 2]; no workload statistics.

    A saturating squash (``v/(1+|v|)``) was tried first but crushes the
    resolution between nearby constants (30 vs 40 differ by 0.008),
    making "same predicate, different constant" near-miss negatives
    invisible to the EMF. Linear scaling by the fuzzer's constant range
    keeps them separable while remaining workload-independent.
    """
    return min(2.0, max(-2.0, v / 64.0))


@dataclass
class TreeEnc:
    """BFS node matrix + child indices (−1 = absent)."""

    X: np.ndarray  # (m, nv_size) float32
    left: np.ndarray  # (m,) int32 — BFS index of left/only child
    right: np.ndarray  # (m,) int32


def _base_key(col_key: str, amap: dict[str, str]) -> str:
    alias, col = col_key.split(".", 1)
    return f"{amap[alias]}.{col}"


def _encode_constraint(
    vec: np.ndarray, c: Constraint, vocab: Vocab, amap: dict[str, str],
    jointype: str | None,
) -> None:
    """Fill join/select segments from a canonical constraint."""
    cols = c.columns
    op_i = OPS.index(c.op)
    const = -float(c.expr.const)  # expr op 0  ⇒  lead-part op const
    if len(cols) == 0:
        # constant-folded predicate (e.g. after equality substitution):
        # op + constant only, no column one-hot
        vec[vocab.off_sel_op + op_i] = 1.0
        vec[vocab.off_const] = norm_const(const)
        return
    if len(cols) == 1:
        vec[vocab.off_sel_c + vocab.col_idx(_base_key(cols[0], amap))] = 1.0
        vec[vocab.off_sel_op + op_i] = 1.0
        vec[vocab.off_const] = norm_const(const)
        vec[vocab.off_null] = 0.0
    else:
        # two-or-more-column predicate: first two columns to the join
        # segment, constant (if any) to the select const slot
        vec[vocab.off_join_cl + vocab.col_idx(_base_key(cols[0], amap))] = 1.0
        vec[vocab.off_join_op + op_i] = 1.0
        vec[vocab.off_join_cr + vocab.col_idx(_base_key(cols[1], amap))] = 1.0
        if jointype is not None:
            vec[vocab.off_join_jt + JOIN_TYPES.index(jointype)] = 1.0
        if c.expr.const != 0:
            vec[vocab.off_const] = norm_const(const)
        else:
            vec[vocab.off_null] = 1.0


def encode_tree(plan: Plan, vocab: Vocab) -> TreeEnc:
    amap = alias_map(plan)
    nodes = list(bfs(plan))
    index = {id(n): i for i, n in enumerate(nodes)}
    m = len(nodes)
    X = np.zeros((m, vocab.nv_size), dtype=np.float32)
    left = np.full(m, -1, dtype=np.int32)
    right = np.full(m, -1, dtype=np.int32)
    for i, n in enumerate(nodes):
        if isinstance(n, Scan):
            X[i, vocab.off_table + vocab.table_idx(n.table)] = 1.0
        elif isinstance(n, Filter):
            _encode_constraint(X[i], n.pred.to_constraint(), vocab, amap, None)
            left[i] = index[id(n.child)]
        elif isinstance(n, Join):
            _encode_constraint(
                X[i], n.pred.to_constraint(), vocab, amap, n.jointype
            )
            left[i] = index[id(n.left)]
            right[i] = index[id(n.right)]
        elif isinstance(n, Project):
            # Position-weighted multi-hot: projection ORDER is part of
            # result semantics (§2.1), so (x, y) and (y, x) must encode
            # differently. Weight 1 + 0.25·position; duplicates sum.
            for pos, c in enumerate(n.cols):
                X[i, vocab.off_sel_c + vocab.col_idx(_base_key(c.key, amap))] += (
                    1.0 + 0.25 * pos
                )
            left[i] = index[id(n.child)]
    return TreeEnc(X, left, right)
