"""Fourier–Motzkin decision procedure for linear rational arithmetic.

This is the repo's substitute for the Z3 SMT solver used by SPES [54]:
it decides satisfiability of conjunctions of :class:`Constraint` over the
rationals, which is exactly the theory the SPJ verifier needs (all
synthetic columns are real-valued; see DESIGN.md "Substitutions").

Pipeline per :func:`satisfiable` call:

1. Gaussian-eliminate equalities by substitution.
2. Fourier–Motzkin eliminate the remaining inequalities' variables one
   at a time, combining each (lower, upper) bound pair; strictness
   propagates. A constant contradiction anywhere ⇒ unsat.
3. Check each ``!=`` on its own against those inequalities, with two FM
   runs (as ``>`` and as ``<``; convexity makes this sound). More than
   ``_MAX_DISEQ_SPLITS`` (12) of them raise :class:`SolverError`.

Complexity is exponential (as the paper expects of its verifier:
``O(2^Ω(γ))``), but inputs here have ≲ a dozen variables/constraints.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.solver.linexpr import Constraint, LinExpr

_MAX_DISEQ_SPLITS = 12


class SolverError(RuntimeError):
    """Raised when an input exceeds the procedure's bounded search."""


def _fold_constants(cs: Iterable[Constraint]) -> list[Constraint] | None:
    """Drop trivially-true constraints; None if any is trivially false."""
    out = []
    for c in cs:
        t = c.truth()
        if t is False:
            return None
        if t is None:
            out.append(c)
    return out


def _substitute_equalities(cs: list[Constraint]) -> list[Constraint] | None:
    """Eliminate ``=`` constraints by Gaussian substitution.

    Returns the reduced (equality-free) system, or None if a constant
    contradiction is derived.
    """
    work = list(cs)
    while True:
        eq = next((c for c in work if c.op == "="), None)
        if eq is None:
            return work
        # expr = 0 with canonical leading coefficient 1: solve for the
        # leading column:  x = -(rest)
        name, coef = eq.expr.coeffs[0]
        rest = LinExpr(eq.expr.coeffs[1:], eq.expr.const)
        replacement = rest * (Fraction(-1) / coef)
        nxt = []
        for c in work:
            if c is eq:
                continue
            nxt.append(Constraint.make(c.expr.substitute(name, replacement), c.op))
        folded = _fold_constants(nxt)
        if folded is None:
            return None
        work = folded


def _eliminate_var(cs: list[Constraint], var: str) -> list[Constraint] | None:
    """FM-eliminate ``var`` from an inequality-only system."""
    lowers: list[tuple[LinExpr, bool]] = []  # var > expr (strict?) i.e. var - expr > 0
    uppers: list[tuple[LinExpr, bool]] = []  # var < expr
    rest: list[Constraint] = []
    for c in cs:
        k = c.expr.coeff(var)
        if k == 0:
            rest.append(c)
            continue
        # c: k*var + r (>|>=) 0  (ops are only > / >= / < / <= here; make()
        # canonicalizes but all four can appear).
        r = LinExpr(
            tuple((n, v) for n, v in c.expr.coeffs if n != var), c.expr.const
        )
        bound = r * (Fraction(-1) / k)  # var ⋈ bound
        op = c.op
        if k < 0:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        strict = op in ("<", ">")
        if op in (">", ">="):
            lowers.append((bound, strict))
        else:
            uppers.append((bound, strict))
    combined: list[Constraint] = list(rest)
    for lo, lo_strict in lowers:
        for hi, hi_strict in uppers:
            # lo < var < hi  ⇒  hi - lo > 0 (strict if either side strict)
            op = ">" if (lo_strict or hi_strict) else ">="
            combined.append(Constraint.make(hi - lo, op))
    return _fold_constants(combined)


def _sat_inequalities(cs: list[Constraint]) -> bool:
    """Satisfiability of a system containing only <, <=, >, >=."""
    work = _fold_constants(cs)
    if work is None:
        return False
    while work:
        vars_left = {n for c in work for n in c.columns}
        if not vars_left:
            return True
        # Eliminate the variable appearing in fewest constraints (cheap
        # heuristic to slow the quadratic blowup).
        var = min(
            vars_left, key=lambda v: sum(1 for c in work if c.expr.coeff(v) != 0)
        )
        work = _eliminate_var(work, var)
        if work is None:
            return False
    return True


def satisfiable(constraints: Sequence[Constraint]) -> bool:
    """Decide whether a conjunction of constraints has a rational model."""
    folded = _fold_constants(constraints)
    if folded is None:
        return False
    eq_free = _substitute_equalities(folded)
    if eq_free is None:
        return False
    diseqs = [c for c in eq_free if c.op == "!="]
    others = [c for c in eq_free if c.op != "!="]
    if len(diseqs) > _MAX_DISEQ_SPLITS:
        raise SolverError(f"too many disequalities ({len(diseqs)})")
    # Over a dense order, a finite conjunction of inequalities with a
    # nonempty solution polytope P fails a set of disequalities only if P
    # is entirely contained in one of the hyperplanes. Check each ``!=``
    # independently: sat iff base is sat and no hyperplane contains P
    # (i.e. for each e != 0, P ∧ (e>0) or P ∧ (e<0) is sat). Pairwise
    # independence suffices because P minus finitely many proper
    # relatively-closed hyperplane sections of a convex set is nonempty
    # iff no single hyperplane contains P.
    if not _sat_inequalities(others):
        return False
    for d in diseqs:
        gt = _sat_inequalities(others + [Constraint.make(d.expr, ">")])
        lt = _sat_inequalities(others + [Constraint.make(d.expr, "<")])
        if not (gt or lt):
            return False
    return True


def implies(premises: Sequence[Constraint], conclusion: Constraint) -> bool:
    """``premises ⟹ conclusion`` iff premises ∧ ¬conclusion is unsat. A
    conclusion that is one of the premises is implied with no FM run (so
    also when the premises hold more disequalities than FM splits)."""
    if conclusion in premises:
        return True
    return not satisfiable(list(premises) + [conclusion.negate()])
