"""Signature-based equivalence detection — the CloudViews/[32] baseline.

Computes a Merkle-style hash over the subexpression's *surface* AST
with only cheap normalizations: canonical alias renaming (aliases are
numbered per sorted base-table), unordered treatment of the flattened
scan set, and sorted surface-predicate strings. Two subexpressions are
declared equivalent iff their signatures collide.

Deliberately syntactic: it catches structural shuffles (join order,
filter order) but not comparison algebra (``a > b+10`` vs ``b+10 < a``)
nor implication-level rewrites — exactly the completeness gap the paper
attributes to signature approaches (§1, Figure 1).
"""
from __future__ import annotations

import hashlib
import itertools

from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Expr,
    Filter,
    Join,
    Plan,
    alias_map,
    bfs,
    output_columns,
)


def _canonical_alias_map(plan: Plan) -> dict[str, str]:
    """alias → positional name, ordered by (base table, alias)."""
    amap = alias_map(plan)
    ordered = sorted(amap.items(), key=lambda kv: (kv[1], kv[0]))
    return {alias: f"q{i}" for i, (alias, _) in enumerate(ordered)}


def _expr_str(e: Expr, names: dict[str, str]) -> str:
    if isinstance(e, Col):
        return f"{names[e.alias]}.{e.column}"
    if isinstance(e, Const):
        return repr(float(e.value))
    return f"({_expr_str(e.left, names)}{e.op}{_expr_str(e.right, names)})"


def _pred_str(p: Comparison, names: dict[str, str]) -> str:
    return f"{_expr_str(p.lhs, names)}{p.op}{_expr_str(p.rhs, names)}"


def signature(plan: Plan) -> str:
    """Surface-form signature of an SPJ subexpression."""
    names = _canonical_alias_map(plan)
    amap = alias_map(plan)
    scans = sorted(f"{t}:{names[a]}" for a, t in amap.items())
    preds = sorted(
        _pred_str(n.pred, names)
        for n in bfs(plan)
        if isinstance(n, (Filter, Join))
    )
    proj = [
        f"{names[c.alias]}.{c.column}" for c in output_columns(plan)
    ]
    payload = "|".join(scans) + "||" + "|".join(preds) + "||" + ",".join(proj)
    return hashlib.sha256(payload.encode()).hexdigest()


def signature_equivalent(p1: Plan, p2: Plan) -> bool:
    return signature(p1) == signature(p2)


def signature_set(plans: list[Plan]) -> set[tuple[int, int]]:
    """All signature-collision pairs in a workload (hash-bucketed, O(n))."""
    buckets: dict[str, list[int]] = {}
    for i, p in enumerate(plans):
        buckets.setdefault(signature(p), []).append(i)
    return {
        pair
        for idxs in buckets.values()
        for pair in itertools.combinations(idxs, 2)
    }
