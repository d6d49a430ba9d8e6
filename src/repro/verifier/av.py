"""Automated verifier (AV) — the repo's SPES [54] substitute.

Decides semantic equivalence of two SPJ subexpressions under bag
semantics:

1. Flatten both plans (:func:`repro.core.record.flatten`). Base-table
   multisets and projection arities must match.
2. Search base-table-preserving alias bijections. Under a bijection the
   plans are equivalent iff their constraint conjunctions are mutually
   implying (Fourier–Motzkin, exact over the rationals) and each
   positional projection pair is provably equal under the constraints.
3. Any bijection succeeding ⇒ equivalent.

Soundness: for conjunctive SPJ queries an alias bijection identifies
tuple combinations one-to-one, and logically equivalent predicate
conjunctions select exactly the same combinations, so output
multiplicities match — bag equivalence. The procedure is correct but
not complete (like the paper's AV, §2.1): exotic equivalences with no
alias bijection are refuted, and a check it cannot finish (a plan
outside the SPJ fragment, the bijection budget, FM's ``SolverError``)
answers unknown, ``None``, rather than raising.

Cost: exponential in alias-group sizes and in FM variable count —
mirroring the paper's ``O(2^Ω(γ))`` verifier complexity. The AV reads
the plan records its caller holds (:mod:`repro.core.record`, one per
plan per call), so a plan is flattened and its satisfiability decided
at most once, however many pairs it is in; :func:`verify` makes a
fresh record of each of its two plans. Per pair are the table and
arity checks, the bijection search and the implication checks; one
whose conclusion is among its premises costs no FM run
(:func:`repro.solver.fm.implies`). ``Verifier`` counts solver
invocations, those included, so experiments can report work done.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.plan import Plan
from repro.core.record import FlatSPJ, PlanRecord, flatten
from repro.solver.fm import implies, satisfiable
from repro.solver.linexpr import Constraint, LinExpr

_MAX_BIJECTIONS = 20_000


@dataclass
class Verifier:
    """The AV, counting its solver invocations (for cost accounting)."""

    solver_calls: int = 0

    def equivalent(self, r1: PlanRecord, r2: PlanRecord) -> bool | None:
        """Proved (True), refuted (False) or unknown (None)."""
        for r in (r1, r2):
            if "flat" not in vars(r):  # None outside the verifier's fragment
                r.flat = flatten(r)
        if r1.flat is None or r2.flat is None:
            return None
        try:
            return self._equivalent(r1, r2)
        except RuntimeError:  # the bijection budget, or FM's SolverError
            return None

    # -- internals ----------------------------------------------------
    def _sat(self, rec: PlanRecord) -> bool:
        """Whether the record's plan selects anything, decided on first
        use; a ``SolverError`` propagates and leaves it undecided."""
        if rec.sat is None:
            self.solver_calls += 1
            rec.sat = satisfiable(list(rec.flat.constraints))
        return rec.sat

    def _equivalent(self, r1: PlanRecord, r2: PlanRecord) -> bool:
        f1, f2 = r1.flat, r2.flat
        if (len(f1.projection) != len(f2.projection)
                or [(t, len(a)) for t, a in r1.alias_groups]
                != [(t, len(a)) for t, a in r2.alias_groups]):
            return False
        if not self._sat(r1) and not self._sat(r2):
            # Both select nothing on every instance — vacuously equivalent.
            return True
        # Lift each alias-level bijection to column-key level
        # ("a2.col" → "a1.col") for LinExpr renaming.
        keys = {k for c in f2.constraints for k in c.columns} | set(f2.projection)
        for mapping in self._bijections(r1, r2):
            key_map = {k: _rename_key(k, mapping) for k in keys}
            renamed_cs = tuple(c.rename(key_map) for c in f2.constraints)
            renamed_proj = tuple(key_map[k] for k in f2.projection)
            if self._match(f1, renamed_cs, renamed_proj):
                return True
        return False

    @staticmethod
    def _bijections(r1: PlanRecord, r2: PlanRecord):
        """All alias maps r2-alias → r1-alias preserving base tables, for
        records with the same table multiset. Raises ``RuntimeError``
        when there are more than :data:`_MAX_BIJECTIONS`, counted before
        any map is built."""
        groups = [aliases for _, aliases in r1.alias_groups]
        if math.prod(math.factorial(len(a)) for a in groups) > _MAX_BIJECTIONS:
            raise RuntimeError("alias bijection search exceeded budget")
        a2s = [a2 for _, aliases in r2.alias_groups for a2 in aliases]
        for combo in itertools.product(*(itertools.permutations(a) for a in groups)):
            yield dict(zip(a2s, itertools.chain.from_iterable(combo)))

    def _match(
        self,
        f1: FlatSPJ,
        cs2: tuple[Constraint, ...],
        proj2: tuple[str, ...],
    ) -> bool:
        cs1 = f1.constraints
        # Fast path: syntactically identical canonical conjunctions.
        if set(cs1) == set(cs2) and f1.projection == proj2:
            return True
        if not self._mutually_implying(cs1, cs2):
            return False
        # Projections must be provably equal position-by-position.
        for k1, k2 in zip(f1.projection, proj2):
            if k1 == k2:
                continue
            eq = Constraint.make(LinExpr.col(k1) - LinExpr.col(k2), "=")
            self.solver_calls += 1
            if not implies(list(cs1), eq):
                return False
        return True

    def _mutually_implying(self, a, b) -> bool:
        for c in b:
            self.solver_calls += 1
            if not implies(list(a), c):
                return False
        for c in a:
            self.solver_calls += 1
            if not implies(list(b), c):
                return False
        return True


def _rename_key(key: str, mapping: dict[str, str]) -> str:
    alias, col = key.split(".", 1)
    return f"{mapping.get(alias, alias)}.{col}"


def verify(p1: Plan, p2: Plan) -> bool | None:
    """One-shot check: :meth:`Verifier.equivalent` on fresh records."""
    return Verifier().equivalent(PlanRecord(p1), PlanRecord(p2))
