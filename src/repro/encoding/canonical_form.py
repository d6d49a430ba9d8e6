"""Canonical plan structure for featurization.

§3.1 canonicalizes predicates (conjunct splitting, constant folding);
we extend the same idea to plan *structure*: before encoding, a plan is
rebuilt left-deep with aliases in lexicographic order and filter/join
predicates sorted by their canonical constraint. Two plans that differ
only by syntactic or normalization-level rewrites (join order, filter
order, comparison algebra) then produce bit-identical NV matrices, and
the EMF's learning capacity is spent on the genuinely semantic cases
(implied/redundant predicates, equality substitution, near-miss
constant changes) — which is the regime the paper's filter operates in.

This is a *featurization* choice, not an equivalence decision: plans
with logically equivalent but syntactically different predicate sets
still encode differently.
"""
from __future__ import annotations

from repro.core.plan import Lower, Plan, compose, decompose, lower_each


def canonical_plan(plan: Plan, lower: Lower = lower_each) -> Plan:
    """Deterministic structural normal form, rebuilt with
    :func:`~repro.core.plan.compose`. A plan outside the SPJ fragment (a
    non-inner join included, so its join type reaches the encoding) or
    whose join graph cannot be rebuilt is returned as written.
    Predicates are lowered through ``lower`` for their sort key, and
    the result holds the same predicate objects."""
    try:
        aliases, jps, fps, proj = decompose(plan)
        return compose(
            aliases,
            sorted(jps, key=lambda p: repr(lower(p))),
            sorted(fps, key=lambda p: repr(lower(p))),
            proj,
            order=sorted(aliases),
        )
    except ValueError:
        return plan
