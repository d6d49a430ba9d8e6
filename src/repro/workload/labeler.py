"""Labeled pair datasets and planted-equivalence workloads (§5, §7).

The paper builds training data from AMOEBA base queries + WeTune
rewrites (positives) and random schema-compatible pairings (negatives).
This module does the same with the in-repo fuzzer/rewriter:

- positives: (base, rewritten variant) or (variant, variant) pairs —
  equivalent by construction (each rewrite family is soundness-tested);
- negatives: random same-SF-group pairs plus "near-miss" perturbations
  (one constant/op/projection mutated) — the hard negatives an
  equivalence model must reject.

Evaluation workloads follow §7.5: a pool of distinct subexpressions
with a controlled number of planted equivalent pairs; AV-admitted
equivalences constitute ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import (
    Col,
    Comparison,
    Const,
    Filter,
    Join,
    Plan,
    Project,
    to_json,
)
from repro.filters.schema_filter import sf_key
from repro.solver.fm import SolverError, satisfiable
from repro.verifier.canonical import flatten
from repro.workload.generator import random_base_plan
from repro.workload.rewrites import REWRITES, _map_nodes, equivalent_variant
from repro.workload.schema import Schema

_OPS_CYCLE = {"<": "<=", "<=": ">", ">": ">=", ">=": "<", "=": ">", "!=": "="}


@dataclass
class LabeledPair:
    p1: Plan
    p2: Plan
    label: bool
    origin: str = ""
    families: tuple[str, ...] = field(default_factory=tuple)


def plan_satisfiable(plan: Plan) -> bool:
    """Whether the plan's predicate conjunction has any model. Plans the
    verifier cannot flatten (non-inner joins) or the solver cannot decide
    are kept."""
    try:
        return satisfiable(list(flatten(plan).constraints))
    except (ValueError, SolverError):
        return True


def perturb(plan: Plan, g: np.random.Generator) -> Plan:
    """A near-miss mutation: same SF-group, almost surely non-equivalent."""
    choice = int(g.integers(0, 3))
    if choice == 0:  # bump one constant
        bumped = {"done": False}

        def bump(n):
            if bumped["done"] or not isinstance(n, Filter):
                return n
            p = n.pred
            if isinstance(p.rhs, Const):
                bumped["done"] = True
                delta = float(int(g.integers(1, 20)))
                return Filter(Comparison(p.lhs, p.op, Const(p.rhs.value + delta)), n.child)
            return n

        out = _map_nodes(plan, bump)
        if bumped["done"]:
            return out
        choice = 1
    if choice == 1:  # mutate one comparison operator
        flipped = {"done": False}

        def flip(n):
            if flipped["done"] or not isinstance(n, Filter):
                return n
            flipped["done"] = True
            p = n.pred
            return Filter(Comparison(p.lhs, _OPS_CYCLE[p.op], p.rhs), n.child)

        out = _map_nodes(plan, flip)
        if flipped["done"]:
            return out
    # swap/replace a projection column (arity preserved)
    assert isinstance(plan, Project)
    cols = list(plan.cols)
    from repro.core.subexpr import referenced_columns

    candidates = [c for c in referenced_columns(plan) if c not in cols]
    if candidates:
        cols[int(g.integers(0, len(cols)))] = candidates[int(g.integers(0, len(candidates)))]
    elif len(cols) > 1:
        i = int(g.integers(0, len(cols) - 1))
        cols[i], cols[i + 1] = cols[i + 1], cols[i]
    else:
        # last resort: duplicate-constant filter bump always applies
        return perturb(plan, g)
    return Project(tuple(cols), plan.child)


def make_positive_pairs(
    schema: Schema,
    n: int,
    *,
    seed: int = 0,
    steps: int = 3,
    families: tuple[str, ...] = tuple(REWRITES),
) -> list[LabeledPair]:
    g = np.random.default_rng(seed)
    out: list[LabeledPair] = []
    while len(out) < n:
        base = random_base_plan(schema, g)
        v1, a1 = equivalent_variant(base, g, steps=steps, families=families)
        if not a1:
            continue
        if g.random() < 0.5:
            out.append(LabeledPair(base, v1, True, "pos", tuple(a1)))
        else:
            v2, a2 = equivalent_variant(base, g, steps=steps, families=families)
            out.append(LabeledPair(v2, v1, True, "pos", tuple(a1) + tuple(a2)))
    return out


def make_negative_pairs(
    schema: Schema, n: int, *, seed: int = 0, screen: bool = True
) -> list[LabeledPair]:
    """Non-equivalent same-SF-group pairs.

    With ``screen`` (default), each candidate is AV-checked so negative
    labels are exact — §5 notes this is how a perfect dataset is built;
    our AV is cheap enough to afford it. A near-miss perturbation can
    accidentally be equivalent (e.g. bumping the constant of a redundant
    filter), so screening is not optional paranoia.
    """
    from repro.verifier.av import Verifier

    g = np.random.default_rng(seed)
    av = Verifier()
    out: list[LabeledPair] = []
    pool: dict[tuple, list[Plan]] = {}

    def ok(a: Plan, b: Plan) -> bool:
        if to_json(a) == to_json(b):
            return False
        return not (screen and av.equivalent(a, b))

    while len(out) < n:
        p = random_base_plan(schema, g)
        if g.random() < 0.5:
            q = perturb(p, g)
            if ok(p, q):
                out.append(LabeledPair(p, q, False, "neg-nearmiss"))
            continue
        key = sf_key(p)
        bucket = pool.setdefault(key, [])
        if bucket:
            other = bucket[int(g.integers(0, len(bucket)))]
            if ok(p, other):
                out.append(LabeledPair(p, other, False, "neg-random"))
        bucket.append(p)
    return out


def make_dataset(
    schema: Schema,
    n_pos: int,
    n_neg: int,
    *,
    seed: int = 0,
    steps: int = 3,
    families: tuple[str, ...] = tuple(REWRITES),
) -> list[LabeledPair]:
    """Balanced labeled dataset, shuffled deterministically."""
    pairs = make_positive_pairs(schema, n_pos, seed=seed, steps=steps, families=families)
    pairs += make_negative_pairs(schema, n_neg, seed=seed + 1)
    g = np.random.default_rng(seed + 2)
    g.shuffle(pairs)
    return pairs


@dataclass
class PlantedWorkload:
    """Subexpression pool with known planted equivalent pairs (§7.5)."""

    plans: list[Plan]
    planted: set[tuple[int, int]]  # index pairs (i < j) planted equivalent

    @property
    def n_pairs(self) -> int:
        n = len(self.plans)
        return n * (n - 1) // 2


def make_reuse_workload(
    schema: Schema,
    *,
    n_classes: int,
    class_size: int = 3,
    n_singletons: int = 8,
    seed: int = 0,
    steps: int = 3,
    min_tables: int = 1,
) -> PlantedWorkload:
    """A workload with repeated computation: ``n_classes`` equivalence
    classes of ``class_size`` members (a base plan plus rewritten
    variants) plus ``n_singletons`` one-off queries — the §7.7 result
    caching regime (the paper's workload averages ~4.4 members/class).
    Planted pairs connect every within-class pair."""
    g = np.random.default_rng(seed)
    plans: list[Plan] = []
    planted: set[tuple[int, int]] = set()
    seen: set[str] = set()

    def gen() -> Plan:
        while True:
            p = random_base_plan(schema, g, min_tables=min_tables)
            if plan_satisfiable(p) and to_json(p) not in seen:
                return p

    for _ in range(n_classes):
        base = gen()
        members = [base]
        tries = 0
        while len(members) < class_size and tries < 20:
            tries += 1
            v, applied = equivalent_variant(base, g, steps=steps)
            if applied and to_json(v) not in {to_json(m) for m in members}:
                members.append(v)
        idxs = []
        for m in members:
            seen.add(to_json(m))
            plans.append(m)
            idxs.append(len(plans) - 1)
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                planted.add((idxs[a], idxs[b]))
    for _ in range(n_singletons):
        p = gen()
        seen.add(to_json(p))
        plans.append(p)
    return PlantedWorkload(plans, planted)


def make_planted_workload(
    schema: Schema,
    *,
    n_subexpr: int,
    n_equiv: int,
    seed: int = 0,
    steps: int = 3,
    table_sets: list[tuple[str, ...]] | None = None,
    max_proj: int = 4,
    min_tables: int = 1,
    family_tiers: list[tuple[str, ...]] | None = None,
) -> PlantedWorkload:
    """~``n_subexpr`` distinct subexpressions with ``n_equiv`` planted
    equivalent pairs; the rest are fuzzer-independent (almost surely
    non-equivalent — the experiment harness AV-sweeps to fix ground
    truth, exactly as §7.5 does).

    ``table_sets`` concentrates generation on a few table pools so that
    many subexpressions share SF-groups (the §7.5 regime, where the SF
    alone rejects only ~37% of pairs). ``family_tiers`` cycles planted
    pairs through rewrite-family pools of increasing difficulty (e.g.
    syntactic-only → +normalization → +implication) so baseline
    detectors find a gradated fraction, as in Figure 13."""
    g = np.random.default_rng(seed)
    plans: list[Plan] = []
    seen: set[str] = set()
    planted: set[tuple[int, int]] = set()

    def gen() -> Plan:
        # Reject unsatisfiable plans: contradictory predicates make a
        # query empty on every instance, so any two of them are
        # (vacuously) equivalent — degenerate pairs that real workloads
        # don't contain (§7.7 likewise excludes empty-result
        # expressions).
        while True:
            pool = (
                table_sets[int(g.integers(0, len(table_sets)))]
                if table_sets
                else None
            )
            p = random_base_plan(
                schema, g, tables=pool, max_proj=max_proj,
                min_tables=min_tables,
            )
            if plan_satisfiable(p):
                return p

    def add(p: Plan) -> int | None:
        j = to_json(p)
        if j in seen:
            return None
        seen.add(j)
        plans.append(p)
        return len(plans) - 1

    while len(planted) < n_equiv:
        base = gen()
        fams = (
            family_tiers[len(planted) % len(family_tiers)]
            if family_tiers
            else tuple(REWRITES)
        )
        v, applied = equivalent_variant(base, g, steps=steps, families=fams)
        if not applied:
            continue
        i = add(base)
        j = add(v)
        if i is None or j is None:
            continue
        planted.add((min(i, j), max(i, j)))
    while len(plans) < n_subexpr:
        add(gen())
    return PlantedWorkload(plans, planted)
