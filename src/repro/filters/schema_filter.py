"""Schema filter (SF) — §2.2.1.

Groups workload subexpressions by (table multiset, output arity); only
same-group pairs survive. O(n): one pass keys each subexpression on the
driver. The executors of :mod:`repro.core.pipeline` then run the rest of
the cascade inside each group.
"""
from __future__ import annotations

import itertools

from repro.core.plan import Plan, base_tables, output_columns


def sf_key(plan: Plan) -> tuple[tuple[str, ...], int]:
    """(sorted base-table multiset, output arity); two plans pass the SF
    (the ``≈_SF`` predicate of §2.2) when their keys are equal."""
    return base_tables(plan), len(output_columns(plan))


def sf_groups(plans: list[Plan]) -> dict[tuple, list[int]]:
    """SF-group key → ascending workload indices of its members."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(plans):
        groups.setdefault(sf_key(p), []).append(i)
    return groups


def sf_pairs(plans: list[Plan]) -> set[tuple[int, int]]:
    """Unordered same-SF-group pairs (i < j) — the SF survivors."""
    return {
        p for idxs in sf_groups(plans).values()
        for p in itertools.combinations(idxs, 2)
    }
