"""Optimizer-rule-based equivalence detection — the Calcite baseline.

Mimics checking equivalence by normalizing both plans through a fixed
rewrite-rule set and comparing the results — the way classical view
matching defers to an optimizer (§1). The rule set covers:

- join flattening + commutativity/associativity (canonical flat form),
- predicate canonicalization (constant folding, comparison algebra:
  flips, shifts, scaling — everything ``Constraint.make`` normalizes),
- conjunct dedup + sorting,
- projection comparison positionally.

What it deliberately lacks is *implication reasoning*: implied or
redundant predicates and equality-substituted variants produce
different canonical forms and are missed — the rewrite-rule
completeness gap [50] that motivates GEqO.
"""
from __future__ import annotations

import itertools

from repro.core.plan import Plan
from repro.verifier.canonical import FlatSPJ, flatten


def _canonical_form(plan: Plan) -> tuple | None:
    """Hashable normalized form under the fixed rule set, or None for
    shapes the rule set does not handle (non-inner joins)."""
    try:
        f: FlatSPJ = flatten(plan)
    except ValueError:
        return None
    # canonical alias naming, ordered by (table, first-use order of the
    # sorted alias list) — a rename an optimizer performs trivially
    ordered = sorted(f.aliases, key=lambda kv: (kv[1], kv[0]))
    names = {alias: f"q{i}" for i, (alias, _) in enumerate(ordered)}

    def re_key(key: str) -> str:
        alias, col = key.split(".", 1)
        return f"{names[alias]}.{col}"

    tables = tuple(t for _, t in ordered)
    constraints = tuple(
        sorted(
            repr(
                c.rename({k: re_key(k) for k in c.columns})
            )
            for c in f.constraints
        )
    )
    projection = tuple(re_key(k) for k in f.projection)
    return (tables, constraints, projection)


def optimizer_equivalent(p1: Plan, p2: Plan) -> bool:
    a, b = _canonical_form(p1), _canonical_form(p2)
    return a is not None and a == b


def optimizer_set(plans: list[Plan]) -> set[tuple[int, int]]:
    """All pairs with equal canonical forms (hash-bucketed)."""
    buckets: dict[tuple, list[int]] = {}
    for i, p in enumerate(plans):
        form = _canonical_form(p)
        if form is None:
            continue
        buckets.setdefault(form, []).append(i)
    return {
        pair
        for idxs in buckets.values()
        for pair in itertools.combinations(idxs, 2)
    }
