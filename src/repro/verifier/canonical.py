"""Canonical flat form of an SPJ plan.

Inner joins and selections commute freely, so an SPJ plan is fully
characterized by (alias → base table map, conjunction of constraints,
positional projection), read off :func:`repro.core.plan.decompose`,
which also refuses any plan outside that fragment. The verifier and the
optimizer-rule baseline both work on this form; only the verifier adds
implication reasoning on top of it.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import Lower, Plan, decompose, lower_each
from repro.solver.linexpr import Constraint


@dataclass(frozen=True)
class FlatSPJ:
    """Flattened SPJ subexpression."""

    aliases: tuple[tuple[str, str], ...]  # sorted (alias, base table)
    constraints: tuple[Constraint, ...]  # deduped, sorted by repr
    projection: tuple[str, ...]  # positional column keys "alias.column"


def flatten(plan: Plan, lower: Lower = lower_each) -> FlatSPJ:
    """Flatten an SPJ plan, lowering each predicate through ``lower``;
    ``ValueError`` outside the fragment."""
    aliases, jps, fps, proj = decompose(plan)
    constraints = {lower(p) for p in jps + fps}
    return FlatSPJ(
        tuple(sorted(aliases.items())),
        tuple(sorted(constraints, key=repr)),
        tuple(c.key for c in proj),
    )
