"""Semantic-preserving rewrite rules — the repo's WeTune [50] substitute.

WeTune's role in the paper is to supply rewrite rules that turn a base
query into syntactically different but semantically equivalent variants
(training positives, planted workload equivalences). Each rule here is
a partial function ``Plan → Plan | None`` (None = not applicable).

Families, by which detector first catches them:

- *syntactic* (signature baseline catches): join commute/reorder,
  filter reorder — structure shuffles with identical surface predicates.
- *normalization* (optimizer-rule baseline catches): comparison flip,
  arithmetic shift across the comparison, constant unfolding, scaling —
  erased by canonicalizing predicates to normalized constraints.
- *implication* (only the AV / GEqO catch): adding implied predicates,
  removing redundant predicates, equality-based column substitution —
  these change the canonical constraint *set* and need implication
  reasoning.

Every rule is sound by construction on the SPJ fragment and
additionally guarded by a Fourier–Motzkin implication check where
applicable; tests cross-validate all of them against the randomized
DuckDB model checker. This module holds the rules only, which take
plans apart and rebuild them with :func:`repro.core.plan.decompose` and
:func:`~repro.core.plan.compose`; one check shared by every rule in
:data:`REWRITES` declines a plan outside the fragment.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from repro.core.plan import (
    BinOp,
    Col,
    Comparison,
    Const,
    Expr,
    Filter,
    Join,
    Plan,
    Project,
    bfs,
    compose,
    decompose,
    map_nodes,
    predicates,
)
from repro.solver.fm import implies
from repro.solver.linexpr import Constraint, LinExpr

Rule = Callable[[Plan, np.random.Generator], Plan | None]

_FLIP = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">=": "<=", ">": "<"}


def lin_to_expr(e: LinExpr) -> Expr:
    """Surface expression for a LinExpr (used to materialize derived preds)."""
    out: Expr | None = None
    for col, k in e.coeffs:
        alias, column = col.split(".", 1)
        term: Expr = Col(alias, column)
        if k != 1:
            term = BinOp("*", Const(float(k)), term)
        out = term if out is None else BinOp("+", out, term)
    if out is None:
        return Const(float(e.const))
    if e.const != 0:
        out = BinOp("+", out, Const(float(e.const)))
    return out


# --------------------------------------------------------------------------
# Structural (syntactic-level) rewrites
# --------------------------------------------------------------------------


def rw_join_commute(plan: Plan, g: np.random.Generator) -> Plan | None:
    joins = [n for n in bfs(plan) if isinstance(n, Join)]
    if not joins:
        return None
    target = joins[int(g.integers(0, len(joins)))]

    def swap(n):
        if n == target:
            return Join(n.right, n.left, n.pred, n.jointype)
        return n

    return map_nodes(plan, swap)


def rw_join_reorder(plan: Plan, g: np.random.Generator) -> Plan | None:
    aliases, jps, fps, proj = decompose(plan)
    if len(aliases) < 2:
        return None
    order = list(aliases)
    g.shuffle(order)
    try:
        return compose(aliases, jps, fps, proj, order=order)
    except ValueError:
        return None


def rw_reorder_filters(plan: Plan, g: np.random.Generator) -> Plan | None:
    aliases, jps, fps, proj = decompose(plan)
    if len(fps) < 2:
        return None
    idx = g.permutation(len(fps))
    return compose(aliases, jps, [fps[i] for i in idx], proj)


# --------------------------------------------------------------------------
# Normalization-level rewrites (surface algebra)
# --------------------------------------------------------------------------


def _rewrite_one_pred(plan: Plan, g: np.random.Generator, fn) -> Plan | None:
    """Apply ``fn(Comparison) -> Comparison | None`` to one random pred."""
    preds = [n for n in bfs(plan) if isinstance(n, (Filter, Join))]
    if not preds:
        return None
    g.shuffle(preds)
    for target in preds:
        new = fn(target.pred)
        if new is None:
            continue

        def sub(n):
            if isinstance(n, Filter) and n.pred == target.pred:
                return Filter(new, n.child)
            if isinstance(n, Join) and n.pred == target.pred:
                return Join(n.left, n.right, new, n.jointype)
            return n

        return map_nodes(plan, sub)
    return None


def rw_flip_comparison(plan: Plan, g: np.random.Generator) -> Plan | None:
    return _rewrite_one_pred(
        plan, g, lambda p: Comparison(p.rhs, _FLIP[p.op], p.lhs)
    )


def rw_arith_shift(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Add the same constant to both sides: ``a > b`` → ``a+k > b+k``."""
    k = float(int(g.integers(1, 12)))

    def shift(p: Comparison) -> Comparison:
        return Comparison(
            BinOp("+", p.lhs, Const(k)), p.op, BinOp("+", p.rhs, Const(k))
        )

    return _rewrite_one_pred(plan, g, shift)


def rw_const_unfold(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Split one literal: ``20`` → ``(12 + 8)`` — purely surface."""

    def unfold(p: Comparison) -> Comparison | None:
        def visit(e: Expr) -> Expr | None:
            if isinstance(e, Const):
                d = float(int(g.integers(1, 9)))
                return BinOp("+", Const(e.value - d), Const(d))
            if isinstance(e, BinOp):
                l = visit(e.left)
                if l is not None:
                    return BinOp(e.op, l, e.right)
                r = visit(e.right)
                if r is not None:
                    return BinOp(e.op, e.left, r)
            return None

        lhs = visit(p.lhs)
        if lhs is not None:
            return Comparison(lhs, p.op, p.rhs)
        rhs = visit(p.rhs)
        if rhs is not None:
            return Comparison(p.lhs, p.op, rhs)
        return None

    return _rewrite_one_pred(plan, g, unfold)


def rw_scale(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Multiply both sides by a positive integer constant."""
    k = float(int(g.integers(2, 6)))

    def scale(p: Comparison) -> Comparison:
        return Comparison(
            BinOp("*", Const(k), p.lhs), p.op, BinOp("*", Const(k), p.rhs)
        )

    return _rewrite_one_pred(plan, g, scale)


# --------------------------------------------------------------------------
# Implication-level rewrites (need a reasoning verifier to undo)
# --------------------------------------------------------------------------


def rw_add_implied(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Conjoin a predicate implied by the existing ones.

    Candidates: a weakened copy of an inequality, or the sum of two
    same-direction inequalities (transitivity-style derivations — the
    Figure 1 pattern). Guarded by an FM implication check.
    """
    cs = [p.to_constraint() for p in predicates(plan)]
    ineqs = [c for c in cs if c.op in (">", ">=", "<", "<=")]
    if not ineqs:
        return None
    candidates: list[Constraint] = []
    for c in ineqs:
        delta = Fraction(int(g.integers(1, 10)))
        if c.op in (">", ">="):
            candidates.append(Constraint.make(c.expr + delta, c.op))
        else:
            candidates.append(Constraint.make(c.expr - delta, c.op))
    gt = [c for c in ineqs if c.op in (">", ">=")]
    for i in range(len(gt)):
        for j in range(i + 1, len(gt)):
            op = ">" if ">" in (gt[i].op, gt[j].op) else ">="
            candidates.append(Constraint.make(gt[i].expr + gt[j].expr, op))
    g.shuffle(candidates)
    for cand in candidates:
        if cand.truth() is not None or not implies(cs, cand):
            continue
        pred = Comparison(lin_to_expr(cand.expr), cand.op, Const(0.0))
        return Project(plan.cols, Filter(pred, plan.child))
    return None


def rw_remove_redundant(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Drop one Filter whose predicate is implied by the remaining ones."""
    aliases, jps, fps, proj = decompose(plan)
    if not fps:
        return None
    idx = list(g.permutation(len(fps)))
    for i in idx:
        rest = [p for j, p in enumerate(fps) if j != i] + jps
        rest_cs = [p.to_constraint() for p in rest]
        if implies(rest_cs, fps[i].to_constraint()):
            return compose(aliases, jps, [p for j, p in enumerate(fps) if j != i], proj)
    return None


def rw_eq_substitute(plan: Plan, g: np.random.Generator) -> Plan | None:
    """Use an equi-join predicate ``x = y`` to replace x with y elsewhere."""
    eqs = []
    for n in bfs(plan):
        if isinstance(n, (Filter, Join)) and n.pred.op == "=":
            if isinstance(n.pred.lhs, Col) and isinstance(n.pred.rhs, Col):
                eqs.append((n.pred.lhs, n.pred.rhs))
                eqs.append((n.pred.rhs, n.pred.lhs))
    if not eqs:
        return None
    src, dst = eqs[int(g.integers(0, len(eqs)))]

    def replace_in(e: Expr) -> Expr:
        if isinstance(e, Col):
            return dst if e == src else e
        if isinstance(e, BinOp):
            return BinOp(e.op, replace_in(e.left), replace_in(e.right))
        return e

    def fn(p: Comparison) -> Comparison | None:
        if (p.lhs, p.rhs) in ((src, dst), (dst, src)) and p.op == "=":
            return None  # don't rewrite the equality into a tautology
        if src not in p.columns:
            return None
        return Comparison(replace_in(p.lhs), p.op, replace_in(p.rhs))

    return _rewrite_one_pred(plan, g, fn)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SYNTACTIC = ("join_commute", "join_reorder", "reorder_filters")
NORMALIZATION = ("flip_comparison", "arith_shift", "const_unfold", "scale")
IMPLICATION = ("add_implied", "remove_redundant", "eq_substitute")


def _spj_only(rule: Rule) -> Rule:
    """``rule`` on the SPJ fragment; None for any plan ``decompose``
    refuses, so no rule rebuilds a non-inner join as inner or reasons
    over its predicates as filters."""

    def guarded(plan: Plan, g: np.random.Generator) -> Plan | None:
        try:
            decompose(plan)
        except ValueError:
            return None
        return rule(plan, g)

    return guarded


REWRITES: dict[str, Rule] = {
    name: _spj_only(rule)
    for name, rule in {
        "join_commute": rw_join_commute,
        "join_reorder": rw_join_reorder,
        "reorder_filters": rw_reorder_filters,
        "flip_comparison": rw_flip_comparison,
        "arith_shift": rw_arith_shift,
        "const_unfold": rw_const_unfold,
        "scale": rw_scale,
        "add_implied": rw_add_implied,
        "remove_redundant": rw_remove_redundant,
        "eq_substitute": rw_eq_substitute,
    }.items()
}


def equivalent_variant(
    plan: Plan,
    g: np.random.Generator,
    *,
    steps: int = 3,
    families: tuple[str, ...] = tuple(REWRITES),
) -> tuple[Plan, list[str]]:
    """Apply up to ``steps`` random applicable rewrites; returns the
    variant and the names of the rules that actually applied."""
    applied: list[str] = []
    current = plan
    names = list(families)
    for _ in range(steps):
        g.shuffle(names)
        for name in names:
            new = REWRITES[name](current, g)
            if new is not None and new != current:
                current = new
                applied.append(name)
                break
    return current, applied
