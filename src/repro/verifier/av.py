"""Automated verifier (AV) — the repo's SPES [54] substitute.

Decides semantic equivalence of two SPJ subexpressions under bag
semantics:

1. Flatten both plans (:mod:`repro.verifier.canonical`). Base-table
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
alias bijection are reported non-equivalent.

Cost: exponential in alias-group sizes and in FM variable count —
mirroring the paper's ``O(2^Ω(γ))`` verifier complexity. ``Verifier``
counts solver invocations so experiments can report work done.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.plan import Plan
from repro.solver.fm import implies, satisfiable
from repro.solver.linexpr import Constraint, LinExpr
from repro.verifier.canonical import FlatSPJ, flatten

_MAX_BIJECTIONS = 20_000


@dataclass
class Verifier:
    """Stateful AV with invocation counters (for cost accounting)."""

    pairs_checked: int = 0
    solver_calls: int = 0

    def equivalent(self, p1: Plan, p2: Plan) -> bool:
        self.pairs_checked += 1
        try:
            f1, f2 = flatten(p1), flatten(p2)
        except ValueError:
            return False
        return self._equivalent_flat(f1, f2)

    # -- internals ----------------------------------------------------
    def _equivalent_flat(self, f1: FlatSPJ, f2: FlatSPJ) -> bool:
        t1 = sorted(t for _, t in f1.aliases)
        t2 = sorted(t for _, t in f2.aliases)
        if t1 != t2 or len(f1.projection) != len(f2.projection):
            return False
        if not self._sat(f1.constraints) and not self._sat(f2.constraints):
            # Both select nothing on every instance — vacuously equivalent.
            return True
        for mapping in self._bijections(f1, f2):
            # Lift the alias-level bijection to column-key level
            # ("a2.col" → "a1.col") for LinExpr renaming.
            keys = {
                k
                for c in f2.constraints
                for k in c.columns
            } | set(f2.projection)
            key_map = {k: _rename_key(k, mapping) for k in keys}
            renamed_cs = tuple(c.rename(key_map) for c in f2.constraints)
            renamed_proj = tuple(_rename_key(k, mapping) for k in f2.projection)
            if self._match(f1, renamed_cs, renamed_proj):
                return True
        return False

    def _bijections(self, f1: FlatSPJ, f2: FlatSPJ):
        """All alias maps f2-alias → f1-alias preserving base tables."""
        by_table_1: dict[str, list[str]] = {}
        for a, t in f1.aliases:
            by_table_1.setdefault(t, []).append(a)
        by_table_2: dict[str, list[str]] = {}
        for a, t in f2.aliases:
            by_table_2.setdefault(t, []).append(a)
        groups = []
        total = 1
        for t, a2s in sorted(by_table_2.items()):
            perms = list(itertools.permutations(by_table_1[t]))
            total *= len(perms)
            if total > _MAX_BIJECTIONS:
                raise RuntimeError("alias bijection search exceeded budget")
            groups.append((a2s, perms))
        for combo in itertools.product(*(perms for _, perms in groups)):
            mapping: dict[str, str] = {}
            for (a2s, _), perm in zip(groups, combo):
                for a2, a1 in zip(a2s, perm):
                    # Column-level rename: every "a2.col" → "a1.col" is
                    # handled by _rename_key / Constraint.rename on keys.
                    mapping[a2] = a1
            yield {a2: a1 for a2, a1 in mapping.items()}

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

    def _sat(self, cs) -> bool:
        self.solver_calls += 1
        return satisfiable(list(cs))


def _rename_key(key: str, mapping: dict[str, str]) -> str:
    alias, col = key.split(".", 1)
    return f"{mapping.get(alias, alias)}.{col}"


def verify(p1: Plan, p2: Plan) -> bool:
    """One-shot convenience wrapper."""
    return Verifier().equivalent(p1, p2)
