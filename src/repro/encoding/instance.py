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

A node sets at most a handful of its |NV| columns, so a tree is never a
dense matrix. :func:`encode_tree` walks a plan once, in BFS order
(§3.2), and emits each node row's non-zero entries keyed by segment and
base table or column (:class:`TreeEnc`); :func:`pack_encs` places the
keys over a :class:`Vocab`. :class:`Packed` is the one layout of
packed trees, from this encoder to the EMF's first tree convolution,
which reads the slots as they are: trees row-wise with no padding,
each row as a fixed number of (column, value) slots. :func:`take`
gathers trees out of a ``Packed`` and :func:`concat` joins several.
:func:`densify` builds the dense matrix for the flat baselines and the
tests.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core.plan import (
    Filter,
    Join,
    JOIN_TYPES,
    Lower,
    Plan,
    Project,
    Scan,
    alias_map,
    bfs,
)
from repro.core.record import PlanRecord
from repro.solver.linexpr import OPS, Constraint

# The NV segments in vector order (Vocab.bounds holds their sizes). A
# table or column one-hot is keyed by base table or base column; any
# other segment by a position within it.
SEGMENTS = ("table", "join_cl", "join_op", "join_cr", "join_jt", "sel_c", "sel_op",
            "const", "null")
COLUMN_SEGMENTS = ("join_cl", "join_cr", "sel_c")


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
    def bounds(self) -> np.ndarray:
        """The first column of each of :data:`SEGMENTS`, then |NV|."""
        n_t, n_c, n_o, n_j = self.n_t, self.n_c, len(OPS), len(JOIN_TYPES)
        return np.cumsum((0, n_t, n_c, n_o, n_c, n_j, n_c, n_o, 1, 1))  # SEGMENTS order

    @cached_property
    def nv_size(self) -> int:
        return int(self.bounds[-1])

    def off(self, segment: str) -> int:
        """The first column of ``segment``, one of :data:`SEGMENTS`."""
        return int(self.bounds[SEGMENTS.index(segment)])

    @cached_property
    def _table_pos(self) -> dict[str | None, int]:
        return {t: i for i, t in enumerate(self.tables)}

    @cached_property
    def _col_pos(self) -> dict[str | None, int]:
        return {c: i for i, c in enumerate(self.columns)}

    def table_idx(self, t: str) -> int:
        return self._table_pos[t]

    def col_idx(self, key: str) -> int:
        return self._col_pos[key]

    def column(self, segment: str, key) -> int:
        """The vector column of a :class:`TreeEnc` entry key."""
        off = self.off(segment)
        if segment == "table":
            return off + self.table_idx(key)
        if segment in COLUMN_SEGMENTS:
            return off + self.col_idx(key)
        return off + key


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


Key = tuple[str, "str | int"]  # (segment, base table / base column / position)


@dataclass
class TreeEnc:
    """A plan's node entries in BFS row order, before a vocabulary places
    them: entry ``e`` is the value ``vals[e]`` at ``keys[e]`` (a
    ``(segment, key)`` of :data:`SEGMENTS`) in row ``rows[e]``, a row's
    keys distinct; and child indices (−1 = absent). Packing the entries
    (:func:`pack_encs`) rounds the values to float32 and drops the ones
    that round to 0."""

    rows: list[int]
    keys: list[Key]
    vals: list[float]
    left: np.ndarray  # (m,) int32 — BFS index of left/only child
    right: np.ndarray  # (m,) int32


def entry_vocab(keys) -> Vocab:
    """The vocabulary of the tables and columns that entry ``keys``
    reference: tables lexicographic, columns grouped by table and
    lexicographic within."""
    cols: dict[str, set[str]] = {}
    for seg, key in keys:
        if seg == "table":
            cols.setdefault(key, set())
        elif seg in COLUMN_SEGMENTS:
            t, c = key.split(".", 1)
            cols.setdefault(t, set()).add(c)
    tables = sorted(cols)
    return Vocab(tuple(tables), tuple(f"{t}.{c}" for t in tables for c in sorted(cols[t])))


SENTINEL = -1  # the column of an unused slot; its weight row is zero


class Packed(NamedTuple):
    """Trees packed row-wise with no padding: tree ``k`` holds the rows
    from ``starts[k]`` up to the next tree's start (or the end), and
    ``left``/``right`` are global row indices (−1 = absent). Every tree
    has at least one row. A row is its non-zero entries in ``K`` fixed
    slots, in column order; ``K`` is the most entries of a row, and an
    unused slot holds column :data:`SENTINEL` and value 0."""

    starts: np.ndarray  # (B,) first row of each tree
    cols: np.ndarray  # (N, K) column of each slot
    vals: np.ndarray  # (N, K) float64 value of each slot
    left: np.ndarray  # (N,)
    right: np.ndarray  # (N,)

    @property
    def sizes(self) -> np.ndarray:
        """(B,) row count of each tree."""
        return np.append(self.starts[1:], len(self.cols)) - self.starts


def offsets(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of ``sizes`` starts."""
    out = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=out[1:])
    return out


def pack_encs(encs: Sequence[TreeEnc], vocab: Vocab | None = None) -> tuple[Vocab, Packed]:
    """``encs`` packed row-wise in order over ``vocab``, by default
    :func:`entry_vocab` of their entries, with global child rows: the
    vocabulary and the trees.

    Values are rounded to float32, as the node matrix always held them,
    and an entry that rounds to 0 (a constant that normalizes to 0) is
    dropped."""
    sizes = np.array([len(e.left) for e in encs], dtype=np.intp)
    starts = offsets(sizes)
    n_entries = np.array([len(e.rows) for e in encs], dtype=np.intp)
    total = int(n_entries.sum())
    keys = list(chain.from_iterable(e.keys for e in encs))
    column = dict.fromkeys(keys)
    vocab = vocab or entry_vocab(column)
    for key in column:
        column[key] = vocab.column(*key)
    row = np.fromiter(chain.from_iterable(e.rows for e in encs), np.intp, total)
    row += np.repeat(starts, n_entries)
    col = np.fromiter(map(column.__getitem__, keys), np.intp, total)
    val = np.fromiter(chain.from_iterable(e.vals for e in encs), np.float64, total)
    val = val.astype(np.float32).astype(np.float64)
    keep = np.flatnonzero(val != 0)
    keep = keep[np.lexsort((col[keep], row[keep]))]
    row, col, val = row[keep], col[keep], val[keep]
    n = int(sizes.sum())
    count = np.bincount(row, minlength=n)
    slot = np.arange(len(row)) - offsets(count)[row]
    cols = np.full((n, int(count.max(initial=0))), SENTINEL, dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[row, slot] = col
    vals[row, slot] = val

    def rows(idx: list[np.ndarray]) -> np.ndarray:
        idx = np.concatenate(idx) if idx else np.zeros(0, dtype=np.intp)
        return np.where(idx >= 0, idx + np.repeat(starts, sizes), -1)

    return vocab, Packed(starts, cols, vals, rows([e.left for e in encs]),
                         rows([e.right for e in encs]))


def take(packed: Packed, trees: np.ndarray) -> Packed:
    """The trees ``trees`` (indices) of ``packed``, packed in that order
    into new arrays, with as many slots as their fullest row."""
    sizes = packed.sizes[trees]
    starts = offsets(sizes)
    shift = np.repeat(packed.starts[trees] - starts, sizes)  # old row − new row
    rows = np.arange(len(shift)) + shift
    child = lambda c: np.where(c[rows] >= 0, c[rows] - shift, -1)
    cols = packed.cols[rows]
    k = cols.shape[1]
    while k and (cols[:, k - 1] == SENTINEL).all():  # slots fill from the left
        k -= 1
    return Packed(starts, cols[:, :k], packed.vals[rows, :k],
                  child(packed.left), child(packed.right))


def concat(parts: list[Packed]) -> Packed:
    """``parts`` packed one after another, child rows shifted and rows
    widened to the most slots of a part."""
    base = offsets(np.array([len(p.cols) for p in parts], dtype=np.intp))
    k = max(p.cols.shape[1] for p in parts)
    shift = lambda c, b: np.where(c >= 0, c + b, -1)
    widen = lambda a, fill: np.pad(a, ((0, 0), (0, k - a.shape[1])), constant_values=fill)
    return Packed(
        np.concatenate([p.starts + b for p, b in zip(parts, base)]),
        np.concatenate([widen(p.cols, SENTINEL) for p in parts]),
        np.concatenate([widen(p.vals, 0.0) for p in parts]),
        np.concatenate([shift(p.left, b) for p, b in zip(parts, base)]),
        np.concatenate([shift(p.right, b) for p, b in zip(parts, base)]),
    )


def densify(trees: Packed, d: int) -> np.ndarray:
    """The dense (N, d) node matrix of ``trees``: the flat baselines'
    features and the tests' reference, never the EMF's input."""
    X = np.zeros((len(trees.cols), d + 1))  # column d takes the sentinel slots
    X[np.arange(len(trees.cols))[:, None], trees.cols] = trees.vals
    return X[:, :d]


def _base_key(col_key: str, amap: Mapping[str, str]) -> str:
    alias, col = col_key.split(".", 1)
    return f"{amap[alias]}.{col}"


def _constraint_entries(
    c: Constraint, amap: Mapping[str, str], jointype: str | None
) -> tuple[tuple[Key, ...], tuple[float, ...]]:
    """The join/select entries (keys, values) of a canonical constraint."""
    cols = c.columns
    op_i = OPS.index(c.op)
    const = -float(c.expr.const)  # expr op 0  ⇒  lead-part op const
    if len(cols) == 0:
        # constant-folded predicate (e.g. after equality substitution):
        # op + constant only, no column one-hot
        return (("sel_op", op_i), ("const", 0)), (1.0, norm_const(const))
    if len(cols) == 1:
        return ((("sel_c", _base_key(cols[0], amap)), ("sel_op", op_i), ("const", 0)),
                (1.0, 1.0, norm_const(const)))
    # two-or-more-column predicate: first two columns to the join
    # segment, constant (if any) to the select const slot
    keys = [("join_cl", _base_key(cols[0], amap)), ("join_op", op_i),
            ("join_cr", _base_key(cols[1], amap))]
    vals = [1.0, 1.0, 1.0]
    if jointype is not None:
        keys.append(("join_jt", JOIN_TYPES.index(jointype)))
        vals.append(1.0)
    if c.expr.const != 0:
        keys.append(("const", 0))
        vals.append(norm_const(const))
    else:
        keys.append(("null", 0))
        vals.append(1.0)
    return tuple(keys), tuple(vals)


def encode_tree(
    plan: Plan, lower: Lower | None = None, aliases: Mapping[str, str] | None = None
) -> TreeEnc:
    """The node rows of ``plan``, keyed by base table and column, by one
    walk of it; each predicate is lowered through ``lower``, by default
    a fresh record of ``plan``, and ``aliases`` maps each alias to its
    base table (by default taken from the plan)."""
    lower = lower or PlanRecord(plan).constraint
    amap = alias_map(plan) if aliases is None else aliases
    nodes = list(bfs(plan))
    index = {id(n): i for i, n in enumerate(nodes)}
    rows: list[int] = []
    keys: list[Key] = []
    vals: list[float] = []
    left, right = [-1] * len(nodes), [-1] * len(nodes)
    for i, n in enumerate(nodes):
        if isinstance(n, Scan):
            ks, vs = (("table", n.table),), (1.0,)
        elif isinstance(n, Filter):
            ks, vs = _constraint_entries(lower(n.pred), amap, None)
            left[i] = index[id(n.child)]
        elif isinstance(n, Join):
            ks, vs = _constraint_entries(lower(n.pred), amap, n.jointype)
            left[i] = index[id(n.left)]
            right[i] = index[id(n.right)]
        elif isinstance(n, Project):
            # Position-weighted multi-hot: projection ORDER is part of
            # result semantics (§2.1), so (x, y) and (y, x) must encode
            # differently. Weight 1 + 0.25·position; duplicates sum.
            hot: dict[Key, float] = {}
            for pos, c in enumerate(n.cols):
                key = ("sel_c", _base_key(c.key, amap))
                hot[key] = hot.get(key, 0.0) + 1.0 + 0.25 * pos
            ks, vs = tuple(hot), tuple(hot.values())
            left[i] = index[id(n.child)]
        rows += [i] * len(ks)
        keys += ks
        vals += vs
    return TreeEnc(rows, keys, vals, np.array(left, dtype=np.int32),
                   np.array(right, dtype=np.int32))
