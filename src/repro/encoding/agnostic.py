"""DB-agnostic encoding (§4.2): symbolic slots + matrix converter.

A pair (or SF-group) of subexpressions is generalized into a *pattern*:
the group's referenced tables take table slots ``0..n-1`` (lexicographic
order of base-table names), and each table's referenced columns take
that table's column slots (lexicographic within the table). The
resulting ``NV_α`` vector is the instance layout (§4.1) over that fixed
slot vocabulary, so one trained EMF transfers across schemas and
workloads. :func:`group_vocab` is the one place the slots are assigned.

Two encoders use it, and must agree (tested):

- **direct** — encode the plans against the group's slot vocabulary;
- **converter** (§4.2.1) — transform already-computed instance matrices:
  read the referenced tables and columns off their one-hot masks and
  scatter those positions into the group's slots. This is the paper's
  "lightweight converter" that avoids re-walking every plan per pair.
  The cascade runs on it: :func:`instance_group` encodes each plan of
  an SF-group once, and both filters convert those encodings.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.plan import JOIN_TYPES, Plan
from repro.core.subexpr import referenced_by_table
from repro.encoding.canonical_form import canonical_plan
from repro.encoding.instance import TreeEnc, Vocab, encode_tree
from repro.solver.linexpr import OPS


@dataclass(frozen=True)
class AgnosticSpace:
    """Slot bounds: ``n_tables`` table slots × ``cols_per_table``."""

    n_tables: int = 6
    cols_per_table: int = 7

    @property
    def nv_size(self) -> int:
        n_c = self.n_tables * self.cols_per_table
        return Vocab((None,) * self.n_tables, (None,) * n_c).nv_size


DEFAULT_SPACE = AgnosticSpace()


def group_vocab(cols_by_table: Mapping[str, Iterable[str]]) -> Vocab:
    """The slot vocabulary of a group that references ``cols_by_table``
    (base table → its referenced column names).

    The i-th table (lexicographic) takes table slot ``i``; its j-th
    column (lexicographic) takes column slot ``i * cols_per_table + j``.
    Unused slots hold ``None``. Raises ``ValueError`` when the group has
    more tables, or a table more columns, than :data:`DEFAULT_SPACE`.
    """
    n, m = DEFAULT_SPACE.n_tables, DEFAULT_SPACE.cols_per_table
    tables = sorted(cols_by_table)
    if len(tables) > n:
        raise ValueError(f"{len(tables)} tables exceed the agnostic space's {n}")
    columns: list[str | None] = [None] * (n * m)
    for i, t in enumerate(tables):
        cols = sorted(set(cols_by_table[t]))
        if len(cols) > m:
            raise ValueError(
                f"{len(cols)} referenced columns in {t} exceed the agnostic "
                f"space's {m}"
            )
        columns[i * m : i * m + len(cols)] = [f"{t}.{c}" for c in cols]
    return Vocab(tuple(tables) + (None,) * (n - len(tables)), tuple(columns))


def encode_group_agnostic(plans: list[Plan]) -> list[TreeEnc]:
    """Direct n-ary db-agnostic encoding of a group of subexpressions.

    With ``len(plans) == 2`` this is the pairwise encoding of §4.2; the
    n-ary variant (§4.2.2) is what the VMF applies per SF-group.
    """
    vocab = group_vocab(referenced_by_table(plans))
    return [encode_tree(p, vocab) for p in plans]


def encode_pair_agnostic(p1: Plan, p2: Plan) -> tuple[TreeEnc, TreeEnc]:
    a, b = encode_group_agnostic([p1, p2])
    return a, b


# --------------------------------------------------------------------------
# Matrix converter (§4.2.1): instance encodings → agnostic encodings
# --------------------------------------------------------------------------


def instance_group(plans: list[Plan]) -> tuple[Vocab, list[TreeEnc]]:
    """Canonicalize and instance-encode each plan of a group once, over
    the group's referenced tables and columns (no space bound: this
    never raises)."""
    canon = [canonical_plan(p) for p in plans]
    tables = sorted(cols := referenced_by_table(canon))
    vocab = Vocab(tuple(tables), tuple(f"{t}.{c}" for t in tables for c in sorted(cols[t])))
    return vocab, [encode_tree(p, vocab) for p in canon]


def convert_group(encs: list[TreeEnc], vocab: Vocab) -> list[TreeEnc]:
    """Convert instance encodings (over ``vocab``) of a group to
    db-agnostic encodings without touching the plans.

    The column-wise union of the group's table and column one-hots (the
    ``m_T``/``m_C`` masks of §4.2.1) names the referenced tables and
    columns; :func:`group_vocab` gives their slots. Agrees bit-for-bit
    with :func:`encode_group_agnostic` (tested).
    """
    t_mask = np.zeros(vocab.n_t, dtype=bool)
    c_mask = np.zeros(vocab.n_c, dtype=bool)
    for e in encs:
        t_mask |= e.X[:, vocab.off_table : vocab.off_table + vocab.n_t].any(axis=0)
        for off in (vocab.off_join_cl, vocab.off_join_cr, vocab.off_sel_c):
            c_mask |= e.X[:, off : off + vocab.n_c].any(axis=0)
    t_idx, c_idx = np.nonzero(t_mask)[0], np.nonzero(c_mask)[0]
    cols_by_table: dict[str, list[str]] = {vocab.tables[i]: [] for i in t_idx}
    for k in c_idx:
        t, c = vocab.columns[k].split(".", 1)
        cols_by_table[t].append(c)
    av = group_vocab(cols_by_table)
    t_new = np.array([av.table_idx(vocab.tables[i]) for i in t_idx], dtype=np.intp)
    c_new = np.array([av.col_idx(vocab.columns[k]) for k in c_idx], dtype=np.intp)
    # table and column one-hots move to their slots
    src = np.concatenate([vocab.off_table + t_idx] + [
        off + c_idx for off in (vocab.off_join_cl, vocab.off_join_cr, vocab.off_sel_c)
    ])
    dst = np.concatenate([av.off_table + t_new] + [
        off + c_new for off in (av.off_join_cl, av.off_join_cr, av.off_sel_c)
    ])
    out: list[TreeEnc] = []
    for e in encs:
        X = e.X
        Xa = np.zeros((X.shape[0], av.nv_size), dtype=np.float32)
        Xa[:, dst] = X[:, src]
        # join op, join type, and select op ⊕ const ⊕ null copy through
        Xa[:, av.off_join_op : av.off_join_op + len(OPS)] = X[
            :, vocab.off_join_op : vocab.off_join_op + len(OPS)
        ]
        Xa[:, av.off_join_jt : av.off_join_jt + len(JOIN_TYPES)] = X[
            :, vocab.off_join_jt : vocab.off_join_jt + len(JOIN_TYPES)
        ]
        Xa[:, av.off_sel_op :] = X[:, vocab.off_sel_op :]
        out.append(TreeEnc(Xa, e.left.copy(), e.right.copy()))
    return out


def convert_pair(e1: TreeEnc, e2: TreeEnc, vocab: Vocab) -> tuple[TreeEnc, TreeEnc]:
    a, b = convert_group([e1, e2], vocab)
    return a, b
