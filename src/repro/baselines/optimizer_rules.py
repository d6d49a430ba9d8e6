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

from repro.baselines.signature import canonical_alias_names
from repro.core.plan import Plan
from repro.core.record import PlanRecord, flatten


def _canonical_form(plan: Plan) -> tuple | None:
    """Hashable normalized form under the fixed rule set, or None for
    shapes the rule set does not handle (non-inner joins)."""
    f = flatten(PlanRecord(plan))
    if f is None:
        return None
    names = canonical_alias_names(f.aliases)

    def re_key(key: str) -> str:
        alias, col = key.split(".", 1)
        return f"{names[alias]}.{col}"

    tables = tuple(sorted(t for _, t in f.aliases))
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
