"""DB-agnostic encoding (§4.2): symbolic slots + matrix converter.

A pair (or SF-group) of subexpressions is generalized into a *pattern*:
the group's referenced tables take table slots ``0..n-1`` (lexicographic
order of base-table names), and each table's referenced columns take
that table's column slots (lexicographic within the table). The
resulting ``NV_α`` vector is the instance layout (§4.1) over that fixed
slot vocabulary, so one trained EMF transfers across schemas and
workloads.

Two encoders assign these slots, and must agree bit-for-bit (tested):

- **direct** — place the plans' node entries over the group's slot
  vocabulary, named by :func:`group_vocab`; it is the tests' reference
  and the converter benchmark's baseline;
- **converter** (§4.2.1) — transform already-computed instance
  encodings. This is the paper's "lightweight converter" that avoids
  re-walking every plan per pair, and the cascade runs on it:
  :func:`instance_group` encodes the canonical plan of each plan record
  (:mod:`repro.core.record`) of an SF-group once, takes the group's
  vocabulary from the entries, and packs its plans once into an
  :class:`InstanceGroup`: the trees (a :class:`Packed`) and each plan's
  ``m_T``/``m_C`` masks of referenced tables and columns. The slots of a
  set of plans are ranks in the union of their masks, so the converter
  gathers the trees it needs (:func:`~repro.encoding.instance.take`)
  and moves each table or column slot to its agnostic slot: one slot
  map for a whole group (:func:`group_agnostic`, the VMF's n-ary
  encoding) or one per pair (:func:`pair_batches`, the EMF's pairwise
  encoding, which converts each distinct side of a batch once);
  :func:`plan_pair_batches` for plan pairs (labelled data, τ
  calibration).
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.plan import Plan
from repro.core.record import PlanRecord, records
from repro.core.subexpr import referenced_by_table
from repro.encoding.instance import (
    COLUMN_SEGMENTS,
    SEGMENTS,
    SENTINEL,
    Packed,
    TreeEnc,
    Vocab,
    encode_tree,
    pack_encs,
    take,
)


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


def encode_group_agnostic(plans: list[Plan]) -> Packed:
    """Direct n-ary db-agnostic encoding of a group of subexpressions,
    packed in order.

    With ``len(plans) == 2`` this is the pairwise encoding of §4.2; the
    n-ary variant (§4.2.2) is what the VMF applies per SF-group.
    """
    vocab = group_vocab(referenced_by_table(plans))
    return pack_encs([encode_tree(p) for p in plans], vocab)[1]


def encode_pair_agnostic(p1: Plan, p2: Plan) -> Packed:
    """Direct pairwise encoding (§4.2): the two plans packed in order."""
    return encode_group_agnostic([p1, p2])


# --------------------------------------------------------------------------
# Converter (§4.2.1): instance encodings → agnostic encodings
# --------------------------------------------------------------------------

PAIR_BATCH = 256  # pairs per batch of pair_batches


@dataclass(frozen=True, eq=False)
class InstanceGroup:
    """A group's instance encodings (§4.1), packed once with no padding.

    ``vocab`` lists tables in lexicographic order and columns grouped by
    table, lexicographic within (as :func:`instance_group` and
    ``schema_vocab`` build it); ``trees`` holds the group's trees over
    it, and ``t_mask``/``c_mask`` each tree's ``m_T``/``m_C`` masks of
    §4.2.1 (the tables and columns its one-hots reference).
    """

    vocab: Vocab
    trees: Packed
    t_mask: np.ndarray  # (n, n_t) bool
    c_mask: np.ndarray  # (n, n_c) bool

    def __len__(self) -> int:
        return len(self.trees.starts)


_TABLE = SEGMENTS.index("table")
_IS_COLUMN = np.array([s in COLUMN_SEGMENTS for s in SEGMENTS])


def _entries(vocab: Vocab, trees: Packed):
    """The used slots of ``trees`` over ``vocab``: their (row, slot)
    indices, and each one's tree, segment (an index into ``SEGMENTS``;
    an empty segment is never chosen) and position within it."""
    at = np.nonzero(trees.cols != SENTINEL)
    col = trees.cols[at]
    seg = vocab.bounds.searchsorted(col, "right") - 1
    return at, trees.starts.searchsorted(at[0], "right") - 1, seg, col - vocab.bounds[seg]


def pack_group(encs: list[TreeEnc], vocab: Vocab | None = None) -> InstanceGroup:
    """:class:`InstanceGroup` of instance encodings over ``vocab``, by
    default the tables and columns their entries reference."""
    vocab, trees = pack_encs(encs, vocab)
    _, tree, seg, pos = _entries(vocab, trees)
    t, c = seg == _TABLE, _IS_COLUMN[seg]
    t_mask = np.zeros((len(encs), vocab.n_t), dtype=bool)
    c_mask = np.zeros((len(encs), vocab.n_c), dtype=bool)
    t_mask[tree[t], pos[t]] = True
    c_mask[tree[c], pos[c]] = True
    return InstanceGroup(vocab, trees, t_mask, c_mask)


def instance_group(recs: list[PlanRecord]) -> InstanceGroup:
    """Instance-encode the canonical plan of each record once, by one
    walk of it, over the tables and columns its entries reference (no
    space bound: this never raises); each predicate is lowered, and each
    alias resolved, through the record."""
    return pack_group([encode_tree(r.canonical, r.constraint, None if r.spj is None else r.spj[0])
                       for r in recs])


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


def _convert(group: InstanceGroup, trees: np.ndarray, t_slot: np.ndarray,
             c_slot: np.ndarray) -> Packed:
    """The agnostic encodings of ``trees`` (group indices), packed in
    that order: tree ``k``'s table and column one-hots move to the slots
    ``t_slot[k]`` and ``c_slot[k]``; join op, join type, and select op ⊕
    const ⊕ null keep their positions. The slots rank the instance
    columns in order, so each row keeps its column order."""
    out = take(group.trees, trees)  # new arrays: its columns are rewritten in place
    at, tree, seg, pos = _entries(group.vocab, out)
    t, c = seg == _TABLE, _IS_COLUMN[seg]
    pos[t] = t_slot[tree[t], pos[t]]
    pos[c] = c_slot[tree[c], pos[c]]
    out.cols[at] = DEFAULT_SPACE.slots.bounds[seg] + pos
    return out


def group_agnostic(group: InstanceGroup) -> Packed:
    """The n-ary db-agnostic encoding (§4.2.2) of a whole group, by one
    slot map over its packed rows. Agrees bit-for-bit with
    :func:`encode_group_agnostic` (tested); raises ``ValueError`` when
    the group exceeds the agnostic space."""
    t_slot, c_slot, ok = _slots(
        group, group.t_mask.any(axis=0)[None], group.c_mask.any(axis=0)[None]
    )
    if not ok[0]:
        raise ValueError("group exceeds the agnostic space")
    n = len(group)
    return _convert(group, np.arange(n), np.repeat(t_slot, n, axis=0),
                    np.repeat(c_slot, n, axis=0))


def pair_batches(
    group: InstanceGroup, pairs: list[tuple[int, int]]
) -> Iterator[tuple[np.ndarray, Packed, np.ndarray, np.ndarray]]:
    """The pairwise db-agnostic encodings (§4.2) of index pairs into
    ``group``, one slot map per pair, in batches of :data:`PAIR_BATCH`
    pairs that fit the agnostic space: ``(positions in pairs, sides,
    first sides, second sides)``. A side is a plan under its pair's
    slots for the plan's own tables and columns; each distinct side of a
    batch is converted once, and pair ``k`` of the batch is the sides
    ``(first[k], second[k])``. Pairs outside the space are left out.
    Agrees bit-for-bit with :func:`encode_pair_agnostic` (tested)."""
    I, J = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    t_slot, c_slot, ok = _slots(
        group, group.t_mask[I] | group.t_mask[J], group.c_mask[I] | group.c_mask[J]
    )
    fit = np.flatnonzero(ok)
    for s in range(0, len(fit), PAIR_BATCH):
        ks = fit[s : s + PAIR_BATCH]
        trees = np.concatenate([I[ks], J[ks]])
        ts, cs = np.tile(t_slot[ks], (2, 1)), np.tile(c_slot[ks], (2, 1))
        key = np.hstack([trees[:, None], np.where(group.t_mask[trees], ts, -1),
                         np.where(group.c_mask[trees], cs, -1)])
        # distinct key rows, each row compared as one opaque value
        rows = key.view(np.dtype((np.void, key.strides[0]))).ravel()
        _, first, side = np.unique(rows, return_index=True, return_inverse=True)
        yield (ks, _convert(group, trees[first], ts[first], cs[first]),
               side[: len(ks)], side[len(ks) :])


def plan_pair_batches(
    pairs: list[tuple[Plan, Plan]],
) -> Iterator[tuple[np.ndarray, Packed, np.ndarray, np.ndarray]]:
    """:func:`pair_batches` over a list of plan pairs: all their plans
    are prepared as one :func:`instance_group`, and pair ``k`` is the
    index pair ``(2k, 2k + 1)``."""
    if pairs:
        group = instance_group(records([p for pair in pairs for p in pair]))
        yield from pair_batches(group, [(2 * k, 2 * k + 1) for k in range(len(pairs))])
