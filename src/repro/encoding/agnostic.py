"""DB-agnostic encoding (§4.2): symbolic slots + matrix converter.

A pair (or SF-group) of subexpressions is generalized into a *pattern*:
the group's referenced tables take table slots ``0..n-1`` (lexicographic
order of base-table names), and each table's referenced columns take
that table's column slots (lexicographic within the table). The
resulting ``NV_α`` vector is the instance layout (§4.1) over that fixed
slot vocabulary, so one trained EMF transfers across schemas and
workloads.

Two encoders assign these slots, and must agree bit-for-bit (tested):

- **direct** — encode the plans against the group's slot vocabulary,
  named by :func:`group_vocab`; it is the tests' reference and the
  converter benchmark's baseline;
- **converter** (§4.2.1) — transform already-computed instance
  matrices. This is the paper's "lightweight converter" that avoids
  re-walking every plan per pair, and the cascade runs on it:
  :func:`instance_group` encodes the canonical plan of each plan record
  (:mod:`repro.core.record`) of an SF-group once and packs the node
  rows of all its plans, with no padding, into an
  :class:`InstanceGroup` that keeps each plan's ``m_T``/``m_C`` masks
  of referenced tables and columns. The slots of a set of plans are
  ranks in the union of their masks, so the converter is a column map
  from instance column to agnostic column: one map for a whole group
  (:func:`group_agnostic`, the VMF's n-ary encoding) or one per pair
  (:func:`pair_batches`, the EMF's pairwise encoding), scattered into
  one packed node matrix per batch; :func:`plan_pair_batches` for plan
  pairs (labelled data, τ calibration).
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.plan import JOIN_TYPES, Plan
from repro.core.record import PlanRecord, records
from repro.core.subexpr import referenced_by_table
from repro.encoding.instance import Packed, TreeEnc, Vocab, encode_tree, offsets, pack_encs
from repro.solver.linexpr import OPS


@dataclass(frozen=True)
class AgnosticSpace:
    """Slot bounds: ``n_tables`` table slots × ``cols_per_table``."""

    n_tables: int = 6
    cols_per_table: int = 7

    @cached_property
    def slots(self) -> Vocab:
        """The slot layout: every table and column slot, unnamed."""
        n_c = self.n_tables * self.cols_per_table
        return Vocab((None,) * self.n_tables, (None,) * n_c)

    @property
    def nv_size(self) -> int:
        return self.slots.nv_size


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

PAIR_BATCH = 256  # pairs per column-map batch of pair_batches


@dataclass(frozen=True, eq=False)
class InstanceGroup:
    """A group's instance encodings (§4.1), packed once with no padding.

    ``vocab`` lists tables in lexicographic order and columns grouped by
    table, lexicographic within (as :func:`instance_group` and
    ``schema_vocab`` build it). Per tree: its first row and row count,
    and the ``m_T``/``m_C`` masks of §4.2.1 (the tables and columns its
    one-hots reference). Rows are kept as their non-zero entries, in row
    order, with each tree's first entry and entry count; ``left`` and
    ``right`` are global child rows (−1 = absent).
    """

    vocab: Vocab
    starts: np.ndarray  # (n,)
    sizes: np.ndarray  # (n,)
    left: np.ndarray  # (N,)
    right: np.ndarray  # (N,)
    nz_row: np.ndarray  # (Z,)
    nz_col: np.ndarray  # (Z,)
    nz_val: np.ndarray  # (Z,)
    nz_start: np.ndarray  # (n,)
    nz_count: np.ndarray  # (n,)
    t_mask: np.ndarray  # (n, n_t) bool
    c_mask: np.ndarray  # (n, n_c) bool

    def __len__(self) -> int:
        return len(self.starts)


def pack_group(encs: list[TreeEnc], vocab: Vocab) -> InstanceGroup:
    """:class:`InstanceGroup` of instance encodings over ``vocab``."""
    starts, X, left, right = pack_encs(encs)
    nz_row, nz_col = np.nonzero(X)
    nz_start = np.searchsorted(nz_row, starts)
    used_c = np.zeros((X.shape[0], vocab.n_c), dtype=bool)
    for off in (vocab.off_join_cl, vocab.off_join_cr, vocab.off_sel_c):
        used_c |= X[:, off : off + vocab.n_c] != 0
    used_t = X[:, vocab.off_table : vocab.off_table + vocab.n_t] != 0
    return InstanceGroup(
        vocab, starts, np.diff(starts, append=X.shape[0]), left, right,
        nz_row, nz_col, X[nz_row, nz_col], nz_start,
        np.diff(nz_start, append=len(nz_row)),
        np.logical_or.reduceat(used_t, starts, axis=0),
        np.logical_or.reduceat(used_c, starts, axis=0),
    )


def instance_group(recs: list[PlanRecord]) -> InstanceGroup:
    """Instance-encode the canonical plan of each record once, over the
    group's referenced tables and columns (no space bound: this never
    raises), lowering each predicate through its record."""
    tables = sorted(cols := referenced_by_table([r.canonical for r in recs]))
    vocab = Vocab(tuple(tables), tuple(f"{t}.{c}" for t in tables for c in sorted(cols[t])))
    return pack_group([encode_tree(r.canonical, vocab, r.constraint) for r in recs], vocab)


def _slots(group: InstanceGroup, T: np.ndarray, C: np.ndarray):
    """The :func:`group_vocab` slots of ``P`` subgroups that reference
    the tables ``T`` (P, n_t) and columns ``C`` (P, n_c): table slots
    (P, n_t), column slots (P, n_c), and whether each subgroup fits the
    agnostic space. Slots of unreferenced tables and columns are
    meaningless."""
    v, m = group.vocab, DEFAULT_SPACE.cols_per_table
    table = np.array([v.table_idx(c.split(".", 1)[0]) for c in v.columns], dtype=np.intp)
    first = np.searchsorted(table, table)  # first column of each column's table
    t_slot = np.cumsum(T, axis=1) - 1
    before = np.cumsum(C, axis=1) - C
    rank = before - before[:, first]  # column slot within its table
    ok = (t_slot[:, -1] < DEFAULT_SPACE.n_tables) & ~(C & (rank >= m)).any(axis=1)
    return t_slot, t_slot[:, table] * m + rank, ok


def _column_maps(group: InstanceGroup, t_slot: np.ndarray, c_slot: np.ndarray) -> np.ndarray:
    """(P, |NV|) map from instance column to agnostic column: table and
    column one-hots move to their slots; join op, join type, and select
    op ⊕ const ⊕ null copy through."""
    v, a = group.vocab, DEFAULT_SPACE.slots
    maps = np.empty((len(t_slot), v.nv_size), dtype=np.intp)
    maps[:, v.off_table : v.off_table + v.n_t] = a.off_table + t_slot
    for vo, ao in ((v.off_join_cl, a.off_join_cl), (v.off_join_cr, a.off_join_cr),
                   (v.off_sel_c, a.off_sel_c)):
        maps[:, vo : vo + v.n_c] = ao + c_slot
    maps[:, v.off_join_op : v.off_join_op + len(OPS)] = np.arange(len(OPS)) + a.off_join_op
    maps[:, v.off_join_jt : v.off_join_jt + len(JOIN_TYPES)] = (
        np.arange(len(JOIN_TYPES)) + a.off_join_jt
    )
    maps[:, v.off_sel_op :] = np.arange(a.nv_size - a.off_sel_op) + a.off_sel_op
    return maps


def _ranges(begin: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(b, b + c)`` for each ``(b, c)``."""
    return np.repeat(begin - offsets(counts), counts) + np.arange(counts.sum())


def _convert(group: InstanceGroup, trees: np.ndarray, maps: np.ndarray, owner: np.ndarray) -> Packed:
    """The agnostic encodings of ``trees`` (group indices), packed in
    that order; tree ``k``'s columns go through ``maps[owner[k]]``."""
    sizes, nz_count = group.sizes[trees], group.nz_count[trees]
    starts = offsets(sizes)
    shift = starts - group.starts[trees]  # packed row − instance row, per tree
    row_shift = np.repeat(shift, sizes)
    rows = np.arange(len(row_shift)) - row_shift
    left, right = group.left[rows], group.right[rows]
    nz = _ranges(group.nz_start[trees], nz_count)
    X = np.zeros((len(rows), DEFAULT_SPACE.nv_size))
    X[group.nz_row[nz] + np.repeat(shift, nz_count),
      maps[np.repeat(owner, nz_count), group.nz_col[nz]]] = group.nz_val[nz]
    return Packed(
        starts, X, np.where(left >= 0, left + row_shift, -1),
        np.where(right >= 0, right + row_shift, -1),
    )


def group_agnostic(group: InstanceGroup) -> Packed:
    """The n-ary db-agnostic encoding (§4.2.2) of a whole group, by one
    column map over its packed rows. Agrees bit-for-bit with
    :func:`encode_group_agnostic` (tested); raises ``ValueError`` when
    the group exceeds the agnostic space."""
    t_slot, c_slot, ok = _slots(
        group, group.t_mask.any(axis=0)[None], group.c_mask.any(axis=0)[None]
    )
    if not ok[0]:
        raise ValueError("group exceeds the agnostic space")
    n = len(group)
    return _convert(group, np.arange(n), _column_maps(group, t_slot, c_slot),
                    np.zeros(n, dtype=np.intp))


def pair_batches(
    group: InstanceGroup, pairs: list[tuple[int, int]]
) -> Iterator[tuple[np.ndarray, Packed, Packed]]:
    """The pairwise db-agnostic encodings (§4.2) of index pairs into
    ``group``, one column map per pair, in batches of
    :data:`PAIR_BATCH` pairs that fit the agnostic space: ``(positions in pairs, first plans,
    second plans)``. Pairs outside the space are left out. Agrees
    bit-for-bit with :func:`encode_pair_agnostic` (tested)."""
    I, J = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    t_slot, c_slot, ok = _slots(
        group, group.t_mask[I] | group.t_mask[J], group.c_mask[I] | group.c_mask[J]
    )
    fit = np.flatnonzero(ok)
    for s in range(0, len(fit), PAIR_BATCH):
        ks = fit[s : s + PAIR_BATCH]
        maps = _column_maps(group, t_slot[ks], c_slot[ks])
        own = np.arange(len(ks))
        yield ks, _convert(group, I[ks], maps, own), _convert(group, J[ks], maps, own)


def plan_pair_batches(
    pairs: list[tuple[Plan, Plan]],
) -> Iterator[tuple[np.ndarray, Packed, Packed]]:
    """:func:`pair_batches` over a list of plan pairs: all their plans
    are prepared as one :func:`instance_group`, and pair ``k`` is the
    index pair ``(2k, 2k + 1)``."""
    if pairs:
        group = instance_group(records([p for pair in pairs for p in pair]))
        yield from pair_batches(group, [(2 * k, 2 * k + 1) for k in range(len(pairs))])
