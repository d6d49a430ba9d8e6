"""One record per plan per call: what the cascade's stages read.

GEqO's cascade (§2.2) pays off only if per-plan work is paid once. A
:class:`PlanRecord` computes each part on first use, so a stage's time
holds the preparation it triggers. The AV (:mod:`repro.verifier.av`)
checks pairs of the records its caller holds, and sets the flat form
(:func:`flatten`) and satisfiability through its own names, so its time
and solver count hold them. Nothing outlives a call's :func:`records`:
plans are reused between calls, and a longer-lived memo would hide
their preparation cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.plan import Comparison, Plan, compose, decompose
from repro.solver.linexpr import Constraint


@dataclass(frozen=True)
class FlatSPJ:
    """Flattened SPJ plan: inner joins and selections commute freely."""

    aliases: tuple[tuple[str, str], ...]  # sorted (alias, base table)
    constraints: tuple[Constraint, ...]  # deduped, sorted by repr
    projection: tuple[str, ...]  # positional column keys "alias.column"


class PlanRecord:
    """What the cascade derives from one plan, within one call."""

    flat: FlatSPJ | None  # set by the AV on first use
    sat: bool | None = None  # set by the AV; a SolverError leaves it unset

    def __init__(self, plan: Plan, lowered: dict | None = None) -> None:
        self.plan = plan
        # predicate id → (predicate, constraint): the id stays unreused
        self._lowered = {} if lowered is None else lowered

    @cached_property
    def spj(self):
        """``decompose(plan)``; None outside the SPJ fragment."""
        try:
            return decompose(self.plan)
        except ValueError:
            return None

    def constraint(self, pred: Comparison) -> Constraint:
        """``pred`` lowered, once per predicate object in the call (the
        call's records share the memo, as rewrites share predicates)."""
        hit = self._lowered.get(id(pred))
        if hit is None:
            hit = self._lowered[id(pred)] = (pred, pred.to_constraint())
        return hit[1]

    @cached_property
    def canonical(self) -> Plan:
        """The plan rebuilt by :func:`~repro.core.plan.compose` with
        aliases in lexicographic order and predicates (the same objects)
        sorted by constraint, so plans that differ only by join order,
        filter order or comparison algebra encode alike: a featurization
        choice, not an equivalence decision. A plan outside the fragment
        (so a left join keeps its join type) or whose join graph cannot
        be rebuilt is returned as written."""
        if self.spj is None:
            return self.plan
        aliases, jps, fps, proj = self.spj

        def key(p: Comparison) -> str:
            return repr(self.constraint(p))

        try:
            return compose(aliases, sorted(jps, key=key), sorted(fps, key=key), proj,
                           order=sorted(aliases))
        except ValueError:
            return self.plan

    @cached_property
    def alias_groups(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(base table, its aliases sorted)`` in table order."""
        groups: dict[str, list[str]] = {}
        for alias, table in sorted(self.spj[0].items()):
            groups.setdefault(table, []).append(alias)
        return tuple((t, tuple(groups[t])) for t in sorted(groups))


def records(plans: list[Plan]) -> list[PlanRecord]:
    """One record per plan for one call, sharing one lowering memo."""
    lowered: dict = {}
    return [PlanRecord(p, lowered) for p in plans]


def flatten(rec: PlanRecord) -> FlatSPJ | None:
    """The record's flat form; None outside the verifier's fragment
    (not SPJ, or a non-linear predicate)."""
    if rec.spj is None:
        return None
    aliases, jps, fps, proj = rec.spj
    try:
        constraints = {rec.constraint(p) for p in jps + fps}
    except ValueError:
        return None
    return FlatSPJ(
        tuple(sorted(aliases.items())),
        tuple(sorted(constraints, key=repr)),
        tuple(c.key for c in proj),
    )
