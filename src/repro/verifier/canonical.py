"""Canonical flat form of an SPJ plan.

Inner joins and selections commute freely, so an SPJ plan is fully
characterized by (alias → base table map, conjunction of constraints,
positional projection). The verifier and the optimizer-rule baseline
both work on this form; only the verifier adds implication reasoning
on top of it.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import (
    Join,
    Lower,
    Plan,
    alias_map,
    bfs,
    lower_each,
    output_columns,
    predicates,
)
from repro.solver.linexpr import Constraint


@dataclass(frozen=True)
class FlatSPJ:
    """Flattened SPJ subexpression."""

    aliases: tuple[tuple[str, str], ...]  # sorted (alias, base table)
    constraints: tuple[Constraint, ...]  # deduped, sorted by repr
    projection: tuple[str, ...]  # positional column keys "alias.column"


def flatten(plan: Plan, lower: Lower = lower_each) -> FlatSPJ:
    """Flatten an inner-join SPJ plan with a root Project; each predicate
    is lowered through ``lower``."""
    if any(isinstance(n, Join) and n.jointype != "inner" for n in bfs(plan)):
        raise ValueError("verifier handles inner joins only")
    constraints = {lower(p) for p in predicates(plan)}
    return FlatSPJ(
        tuple(sorted(alias_map(plan).items())),
        tuple(sorted(constraints, key=repr)),
        tuple(c.key for c in output_columns(plan)),
    )
