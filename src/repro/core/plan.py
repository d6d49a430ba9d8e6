"""SPJ logical plan IR, and the one SPJ form.

GEqO operates on logical plans of select-project-join subexpressions
with conjunctive predicates (§1, §3). This module is the repo's plan
representation — the role Calcite ASTs play in the paper. It owns the
SPJ form: :func:`decompose` defines the fragment and is the one reader
that takes an SPJ plan apart, :func:`compose` the one builder.

Design points:

- **Surface form is preserved.** A predicate is a small arithmetic AST
  (``Col``/``Const``/``Add``/``Sub``/``Mul``) on each side of a
  comparison, exactly as the fuzzer/rewriter produced it. The
  signature-based baseline hashes this surface form; the verifier
  normalizes it to a :class:`~repro.solver.linexpr.Constraint`. This is
  what lets ``B.val + 10 < A.val`` and ``A.val > B.val + 10`` be
  syntactically different but semantically identical.
- **Single-clause predicates.** Per §3.1, conjunctions are split so each
  ``Filter``/``Join`` node carries at most one comparison.
- **Non-inner joins are representable, not SPJ.** :func:`decompose`
  refuses them, so nothing rebuilds a left join as an inner one.
- **Executable subtrees.** Every subtree can be rendered to SQL
  (:mod:`repro.core.sqlgen`) and run on DuckDB or Spark, which is how
  the oracle and the randomized model checker validate the verifier.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from repro.solver.linexpr import Constraint, LinExpr, OPS, exact

# --------------------------------------------------------------------------
# Arithmetic expressions (surface form)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """Reference to ``alias.column``."""

    alias: str
    column: str

    @property
    def key(self) -> str:
        return f"{self.alias}.{self.column}"

    def __repr__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Const:
    value: float

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic node; ``op`` is ``+``, ``-`` or ``*``.

    Multiplication is only ever by a constant operand (keeps predicates
    linear, which the verifier requires).
    """

    op: str
    left: "Expr"
    right: "Expr"

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Expr = Col | Const | BinOp


def _lower(e: Expr, k: int | Fraction, acc: dict[str, int | Fraction]) -> int | Fraction:
    """Add the column terms of ``k·e`` into ``acc``; return its constant.

    Each node is visited once. A product is linear only if one factor
    is constant after lowering (``(x - x) * y`` is), so each factor of
    ``*`` is lowered into its own dict first.
    """
    if isinstance(e, Col):
        key = e.key
        acc[key] = acc[key] + k if key in acc else k
        return 0
    if isinstance(e, Const):
        return k * exact(e.value)
    if e.op == "+":
        return _lower(e.left, k, acc) + _lower(e.right, k, acc)
    if e.op == "-":
        return _lower(e.left, k, acc) + _lower(e.right, -k, acc)
    if e.op == "*":
        left: dict[str, int | Fraction] = {}
        lc = _lower(e.left, 1, left)
        if not any(left.values()):
            return _lower(e.right, k * lc, acc)
        right: dict[str, int | Fraction] = {}
        rc = _lower(e.right, 1, right)
        if any(right.values()):
            raise ValueError(f"non-linear product: {e}")
        k = k * rc
        for key, v in left.items():
            acc[key] = acc[key] + v * k if key in acc else v * k
        return lc * k
    raise ValueError(f"unknown arithmetic op {e.op!r}")


def expr_columns(e: Expr) -> tuple[Col, ...]:
    if isinstance(e, Col):
        return (e,)
    if isinstance(e, Const):
        return ()
    return expr_columns(e.left) + expr_columns(e.right)


@dataclass(frozen=True)
class Comparison:
    """Surface comparison ``lhs op rhs`` with ``op`` in ``OPS``."""

    lhs: Expr
    op: str
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"bad comparison op {self.op!r}")

    def to_constraint(self) -> Constraint:
        """``lhs - rhs op 0``, lowered in one pass and normalized once."""
        acc: dict[str, int | Fraction] = {}
        const = _lower(self.lhs, 1, acc) + _lower(self.rhs, -1, acc)
        return Constraint.make(LinExpr.of(acc, const), self.op)

    @property
    def columns(self) -> tuple[Col, ...]:
        return expr_columns(self.lhs) + expr_columns(self.rhs)

    def __repr__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


Lower = Callable[[Comparison], Constraint]


# --------------------------------------------------------------------------
# Plan nodes
# --------------------------------------------------------------------------

JOIN_TYPES = ("inner", "left", "semi")


@dataclass(frozen=True)
class Scan:
    table: str
    alias: str

    def __repr__(self) -> str:
        return f"Scan({self.table} AS {self.alias})"


@dataclass(frozen=True)
class Filter:
    pred: Comparison
    child: "Plan"

    def __repr__(self) -> str:
        return f"Filter[{self.pred}]"


@dataclass(frozen=True)
class Join:
    left: "Plan"
    right: "Plan"
    pred: Comparison
    jointype: str = "inner"

    def __post_init__(self) -> None:
        if self.jointype not in JOIN_TYPES:
            raise ValueError(f"bad join type {self.jointype!r}")

    def __repr__(self) -> str:
        return f"Join[{self.jointype}: {self.pred}]"


@dataclass(frozen=True)
class Project:
    cols: tuple[Col, ...]
    child: "Plan"

    def __repr__(self) -> str:
        return f"Project[{', '.join(c.key for c in self.cols)}]"


Plan = Scan | Filter | Join | Project


def children(node: Plan) -> tuple[Plan, ...]:
    if isinstance(node, Scan):
        return ()
    if isinstance(node, (Filter, Project)):
        return (node.child,)
    return (node.left, node.right)


def bfs(plan: Plan) -> Iterator[Plan]:
    """Breadth-first node traversal — the NV matrix ordering (§3.2)."""
    queue = [plan]
    while queue:
        node = queue.pop(0)
        yield node
        queue.extend(children(node))


def scans(plan: Plan) -> tuple[Scan, ...]:
    return tuple(n for n in bfs(plan) if isinstance(n, Scan))


def base_tables(plan: Plan) -> tuple[str, ...]:
    """Sorted multiset of base tables — the SF grouping key component."""
    return tuple(sorted(s.table for s in scans(plan)))


def alias_map(plan: Plan) -> dict[str, str]:
    """alias → base table for every scan in the plan."""
    return {s.alias: s.table for s in scans(plan)}


def predicates(plan: Plan) -> tuple[Comparison, ...]:
    """All filter + inner-join predicates in BFS order."""
    out = []
    for n in bfs(plan):
        if isinstance(n, Filter):
            out.append(n.pred)
        elif isinstance(n, Join):
            out.append(n.pred)
    return tuple(out)


def output_columns(plan: Plan) -> tuple[Col, ...]:
    """Positional output columns of a subtree: those of its topmost
    Project, a Join concatenating both sides.

    Without a Project above a scan, the columns would be every column
    of that table, which only the schema knows, so this raises; wrap
    such a subtree with :func:`repro.core.subexpr.as_executable` to
    keep it executable (§2.1). Plans used in experiments always have a
    root Project.
    """
    if isinstance(plan, Project):
        return plan.cols
    if isinstance(plan, (Filter,)):
        return output_columns(plan.child)
    if isinstance(plan, Join):
        return output_columns(plan.left) + output_columns(plan.right)
    raise ValueError(
        "output_columns of a bare Scan requires schema context; "
        "wrap experiment plans in a Project"
    )


def rename_aliases(plan: Plan, mapping: Mapping[str, str]) -> Plan:
    """Rewrite every alias reference through ``mapping``."""

    def re_expr(e: Expr) -> Expr:
        if isinstance(e, Col):
            return Col(mapping.get(e.alias, e.alias), e.column)
        if isinstance(e, Const):
            return e
        return BinOp(e.op, re_expr(e.left), re_expr(e.right))

    def re_cmp(c: Comparison) -> Comparison:
        return Comparison(re_expr(c.lhs), c.op, re_expr(c.rhs))

    if isinstance(plan, Scan):
        return Scan(plan.table, mapping.get(plan.alias, plan.alias))
    if isinstance(plan, Filter):
        return Filter(re_cmp(plan.pred), rename_aliases(plan.child, mapping))
    if isinstance(plan, Join):
        return Join(
            rename_aliases(plan.left, mapping),
            rename_aliases(plan.right, mapping),
            re_cmp(plan.pred),
            plan.jointype,
        )
    return Project(
        tuple(Col(mapping.get(c.alias, c.alias), c.column) for c in plan.cols),
        rename_aliases(plan.child, mapping),
    )


# --------------------------------------------------------------------------
# The SPJ form: one reader (decompose) and one builder (compose)
# --------------------------------------------------------------------------


def decompose(plan: Plan):
    """(alias→table, join preds, filter preds, projection), each in BFS
    order, of an SPJ plan: a root ``Project`` over scans, filters and
    inner joins, each alias scanned once. Any other plan raises
    ``ValueError``."""
    if not isinstance(plan, Project):
        raise ValueError("expected root Project")
    aliases: dict[str, str] = {}
    join_preds: list[Comparison] = []
    filter_preds: list[Comparison] = []
    for n in bfs(plan):
        if isinstance(n, Scan):
            if n.alias in aliases:
                raise ValueError(f"alias {n.alias!r} is scanned twice")
            aliases[n.alias] = n.table
        elif isinstance(n, Join):
            if n.jointype != "inner":
                raise ValueError(f"{n.jointype} join is outside the SPJ fragment")
            join_preds.append(n.pred)
        elif isinstance(n, Filter):
            filter_preds.append(n.pred)
    return aliases, join_preds, filter_preds, plan.cols


def compose(
    aliases: dict[str, str],
    join_preds: list[Comparison],
    filter_preds: list[Comparison],
    proj: tuple[Col, ...],
    *,
    order: list[str] | None = None,
) -> Plan:
    """Build a left-deep SPJ plan; ``order`` is the preferred join order.
    An alias joins through a join predicate, or else through the first
    filter linking it to the joined aliases; filters stack in list order
    over any join predicates left over. ``ValueError`` on a cross product."""
    order = order or list(aliases)
    remaining = list(order)
    first = remaining.pop(0)
    plan: Plan = Scan(aliases[first], first)
    joined = {first}
    pending, filters = list(join_preds), list(filter_preds)
    while remaining:
        for preds in (pending, filters):
            hit = _attachment(remaining, joined, preds, linking=preds is filters)
            if hit is not None:
                break
        else:
            raise ValueError("join graph disconnected under this order")
        cand, i = hit
        plan = Join(plan, Scan(aliases[cand], cand), preds.pop(i))
        joined.add(cand)
        remaining.remove(cand)
    for fp in pending + filters:  # pending: join preds that became redundant orderings
        plan = Filter(fp, plan)
    return Project(proj, plan)


def _attachment(remaining: list[str], joined: set[str], preds: list[Comparison],
                *, linking: bool) -> tuple[str, int] | None:
    """``(alias, index)`` of the first remaining alias and predicate that references
    it and otherwise joined aliases only (one at least if ``linking``), or None."""
    for cand in remaining:
        for i, p in enumerate(preds):
            refs = {c.alias for c in p.columns}
            if cand in refs and refs - {cand} <= joined and (len(refs) > 1 or not linking):
                return cand, i
    return None


def map_nodes(plan: Plan, fn: Callable[[Plan], Plan]) -> Plan:
    """Bottom-up structural map; ``fn`` may replace any node."""
    if isinstance(plan, Scan):
        return fn(plan)
    if isinstance(plan, Filter):
        return fn(Filter(plan.pred, map_nodes(plan.child, fn)))
    if isinstance(plan, Join):
        return fn(
            Join(map_nodes(plan.left, fn), map_nodes(plan.right, fn), plan.pred, plan.jointype)
        )
    return fn(Project(plan.cols, map_nodes(plan.child, fn)))


# --------------------------------------------------------------------------
# JSON text form: a stable, exact text key for a plan's surface form (the
# labeler's deduplication, the benchmark's verdict store). Spark ships
# plans to its workers by pickling them, so nothing parses this back.
# --------------------------------------------------------------------------


def _expr_to_obj(e: Expr) -> object:
    if isinstance(e, Col):
        return {"t": "col", "a": e.alias, "c": e.column}
    if isinstance(e, Const):
        return {"t": "const", "v": e.value}
    return {"t": "bin", "op": e.op, "l": _expr_to_obj(e.left), "r": _expr_to_obj(e.right)}


def _plan_to_obj(p: Plan) -> object:
    if isinstance(p, Scan):
        return {"t": "scan", "table": p.table, "alias": p.alias}
    if isinstance(p, Filter):
        return {
            "t": "filter",
            "pred": [_expr_to_obj(p.pred.lhs), p.pred.op, _expr_to_obj(p.pred.rhs)],
            "child": _plan_to_obj(p.child),
        }
    if isinstance(p, Join):
        return {
            "t": "join",
            "jt": p.jointype,
            "pred": [_expr_to_obj(p.pred.lhs), p.pred.op, _expr_to_obj(p.pred.rhs)],
            "l": _plan_to_obj(p.left),
            "r": _plan_to_obj(p.right),
        }
    return {
        "t": "project",
        "cols": [[c.alias, c.column] for c in p.cols],
        "child": _plan_to_obj(p.child),
    }


def to_json(plan: Plan) -> str:
    return json.dumps(_plan_to_obj(plan), separators=(",", ":"))
