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

from repro.core.plan import Lower, Plan, Project, lower_each
from repro.workload.rewrites import compose, decompose


def canonical_plan(plan: Plan, lower: Lower = lower_each) -> Plan:
    """Deterministic structural normal form (best-effort: returns the
    plan unchanged if it is not a root-Project SPJ or the join graph
    cannot be rebuilt). Predicates are lowered through ``lower`` for
    their sort key, and the result holds the same predicate objects."""
    if not isinstance(plan, Project):
        return plan
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
