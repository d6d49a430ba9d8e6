"""Baseline detector tests: the capability ladder must hold.

signature ⊆ optimizer ⊆ AV on equivalences found, with strict gaps on
the right rewrite families — that ladder is the premise of the paper's
comparison (Figure 13) and of our Table 1 reproduction.
"""
import numpy as np
import pytest

from repro.baselines.optimizer_rules import optimizer_set
from repro.baselines.signature import signature, signature_set
from repro.core.plan import rename_aliases
from repro.verifier.av import verify
from repro.workload.generator import random_base_plan
from repro.workload.rewrites import REWRITES, IMPLICATION, NORMALIZATION, SYNTACTIC
from repro.workload.schema import TPCH_LITE
from tests.test_plan import fig1_q1, fig1_q2


def _variants(family, n=30, seed=None):
    g = np.random.default_rng(abs(hash(family)) % 2**31 if seed is None else seed)
    out = []
    for _ in range(n):
        p = random_base_plan(TPCH_LITE, g)
        v = REWRITES[family](p, g)
        if v is not None and v != p:
            out.append((p, v))
        if len(out) >= 8:
            break
    return out


def signature_equivalent(p, q) -> bool:
    return signature(p) == signature(q)


def optimizer_equivalent(p, q) -> bool:
    return optimizer_set([p, q]) == {(0, 1)}


def test_signature_identical_plan():
    assert signature_equivalent(fig1_q1(), fig1_q1())


def test_signature_alias_invariant():
    q = fig1_q1()
    r = rename_aliases(q, {"A": "zz", "B": "aa"})
    assert signature_equivalent(q, r)


def test_fig1_missed_by_signature_and_optimizer_found_by_av():
    """The Figure 1 pair: only semantic reasoning finds it."""
    q1, q2 = fig1_q1(), fig1_q2()
    assert not signature_equivalent(q1, q2)
    assert not optimizer_equivalent(q1, q2)
    assert verify(q1, q2)


@pytest.mark.parametrize("family", sorted(SYNTACTIC))
def test_syntactic_families_caught_by_signature(family):
    pairs = _variants(family)
    assert pairs
    for p, v in pairs:
        assert signature_equivalent(p, v), family
        assert optimizer_equivalent(p, v), family


@pytest.mark.parametrize("family", sorted(NORMALIZATION))
def test_normalization_families_caught_by_optimizer_not_signature(family):
    pairs = _variants(family)
    assert pairs
    missed_by_sig = sum(1 for p, v in pairs if not signature_equivalent(p, v))
    assert missed_by_sig >= len(pairs) * 0.5, family
    for p, v in pairs:
        assert optimizer_equivalent(p, v), family


@pytest.mark.parametrize("family", sorted(IMPLICATION))
def test_implication_families_only_av(family):
    pairs = _variants(family)
    assert pairs
    for p, v in pairs:
        assert not optimizer_equivalent(p, v), family
        assert verify(p, v), family


def test_no_false_positives_on_perturbed_plans():
    from repro.workload.labeler import make_negative_pairs

    for pair in make_negative_pairs(TPCH_LITE, 25, seed=21):
        assert not signature_equivalent(pair.p1, pair.p2)
        assert not optimizer_equivalent(pair.p1, pair.p2)


def test_set_variants_match_pairwise():
    g = np.random.default_rng(33)
    plans = []
    for _ in range(10):
        p = random_base_plan(TPCH_LITE, g)
        plans.append(p)
        v = REWRITES["join_reorder"](p, g) or REWRITES["flip_comparison"](p, g)
        if v:
            plans.append(v)
    sig_pairs = signature_set(plans)
    opt_pairs = optimizer_set(plans)
    for i in range(len(plans)):
        for j in range(i + 1, len(plans)):
            assert ((i, j) in sig_pairs) == signature_equivalent(plans[i], plans[j])
            assert ((i, j) in opt_pairs) == optimizer_equivalent(plans[i], plans[j])
    # ladder: signature ⊆ optimizer
    assert sig_pairs <= opt_pairs


def test_sets_skip_plans_outside_the_fragment():
    """A left join and its inner twin are not one query: neither
    baseline pairs them."""
    plans = [fig1_q1("left"), fig1_q1()]
    assert signature_set(plans) == set()
    assert optimizer_set(plans) == set()
