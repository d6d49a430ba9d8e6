"""Signature-based equivalence detection — the CloudViews/[32] baseline.

Computes a Merkle-style hash over the subexpression's *surface* AST,
read off :func:`repro.core.plan.decompose`, with only cheap
normalizations: canonical alias renaming (aliases are numbered per
sorted base-table), unordered treatment of the flattened scan set, and
sorted surface-predicate strings. Two subexpressions are declared
equivalent iff their signatures collide; a plan outside the SPJ
fragment has no signature.

Deliberately syntactic: it catches structural shuffles (join order,
filter order) but not comparison algebra (``a > b+10`` vs ``b+10 < a``)
nor implication-level rewrites — exactly the completeness gap the paper
attributes to signature approaches (§1, Figure 1).
"""
from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable

from repro.core.plan import Col, Comparison, Const, Expr, Plan, decompose


def canonical_alias_names(aliases: Iterable[tuple[str, str]]) -> dict[str, str]:
    """(alias, base table) pairs → alias → positional name ``q{i}``,
    numbered in (base table, alias) order — a rename an optimizer
    performs trivially."""
    ordered = sorted(aliases, key=lambda kv: (kv[1], kv[0]))
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
    """Surface-form signature of an SPJ subexpression; ``ValueError``
    outside the fragment."""
    amap, jps, fps, proj = decompose(plan)
    names = canonical_alias_names(amap.items())
    scans = sorted(f"{t}:{names[a]}" for a, t in amap.items())
    preds = sorted(_pred_str(p, names) for p in jps + fps)
    cols = [f"{names[c.alias]}.{c.column}" for c in proj]
    payload = "|".join(scans) + "||" + "|".join(preds) + "||" + ",".join(cols)
    return hashlib.sha256(payload.encode()).hexdigest()


def signature_set(plans: list[Plan]) -> set[tuple[int, int]]:
    """All signature-collision pairs in a workload (hash-bucketed, O(n));
    plans outside the SPJ fragment are skipped."""
    buckets: dict[str, list[int]] = {}
    for i, p in enumerate(plans):
        try:
            sig = signature(p)
        except ValueError:
            continue
        buckets.setdefault(sig, []).append(i)
    return {
        pair
        for idxs in buckets.values()
        for pair in itertools.combinations(idxs, 2)
    }
