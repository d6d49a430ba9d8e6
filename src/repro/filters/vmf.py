"""Vector matching filter (VMF) — §2.2, Definition 2.1.

Per SF-group: apply the *n*-ary db-agnostic encoding (§4.2.2), embed
every subexpression with the EMF's trained tree-convolution stack
(eval mode), and emit every pair within Euclidean radius τ as a
likely-equivalent candidate. The radius join is exact (like a FAISS
flat index): SF-groups are small, so comparing blocks of rows against
the whole group is cheaper than building an ANN graph and cannot miss
a pair.

Both executors of :mod:`repro.core.pipeline` call
:meth:`VMF.group_pairs` once per SF-group.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import DEFAULT_SPACE, AgnosticSpace, encode_group_agnostic
from repro.encoding.canonical_form import canonical_plan
from repro.filters.schema_filter import sf_groups
from repro.nn.model import EMF
from repro.nn.train import pad_encs

DEFAULT_TAU = 1.0  # paper: FAISS radius d = 1 (§7 Implementation)
_JOIN_BLOCK = 1 << 20  # float64 elements of one block's difference tensor


def embed_group(
    model: EMF, plans: list[Plan], space: AgnosticSpace = DEFAULT_SPACE
) -> np.ndarray:
    """(n, h) embeddings of one SF-group under the group-wise n-ary
    db-agnostic encoding."""
    canon = [canonical_plan(p) for p in plans]
    encs = encode_group_agnostic(canon, space)
    X, L, R, mask = pad_encs(encs)
    return model.embed_eval(X, L, R, mask)


def radius_join(Z: np.ndarray, tau: float) -> set[tuple[int, int]]:
    """All pairs ``i < j`` of rows of ``Z`` with ``‖Zi − Zj‖ ≤ τ``
    (Definition 2.1), tested as ``((Zi − Zj)²).sum() <= τ²``.

    Row blocks are joined against all of ``Z``; a block's difference
    tensor holds at most ``_JOIN_BLOCK`` elements."""
    n, h = Z.shape
    r2 = tau * tau
    step = max(1, _JOIN_BLOCK // max(n * h, 1))
    out: set[tuple[int, int]] = set()
    for s in range(0, n, step):
        d = ((Z[s : s + step, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        ii, jj = np.nonzero(d <= r2)
        ii += s
        keep = ii < jj
        out.update(zip(ii[keep].tolist(), jj[keep].tolist()))
    return out


def group_candidate_pairs(
    model: EMF,
    plans: list[Plan],
    *,
    tau: float = DEFAULT_TAU,
    space: AgnosticSpace = DEFAULT_SPACE,
) -> set[tuple[int, int]]:
    """Candidate pairs (local indices, i < j) within one SF-group."""
    if len(plans) < 2:
        return set()
    return radius_join(embed_group(model, plans, space), tau)


def calibrate_tau(
    model: EMF,
    positive_pairs: list[tuple[Plan, Plan]],
    *,
    target_recall: float = 0.98,
    space: AgnosticSpace = DEFAULT_SPACE,
) -> float:
    """Pick τ as the ``target_recall`` quantile of positive-pair
    embedding distances — the VMF must admit (nearly) all equivalences
    (§1: "ensure that equivalence pairs are admitted with high recall").
    """
    dists = []
    for p1, p2 in positive_pairs:
        try:
            Z = embed_group(
                model, [canonical_plan(p1), canonical_plan(p2)], space
            )
        except ValueError:
            continue
        dists.append(float(np.linalg.norm(Z[0] - Z[1])))
    if not dists:
        return DEFAULT_TAU
    tau = float(np.quantile(dists, target_recall))
    return max(tau, 1e-3)  # equivalent pairs often embed identically


class VMF:
    """Stateful wrapper holding the embedding model and threshold."""

    def __init__(self, model: EMF, *, tau: float = DEFAULT_TAU,
                 space: AgnosticSpace = DEFAULT_SPACE):
        self.model = model
        self.tau = tau
        self.space = space

    def group_pairs(self, plans: list[Plan]) -> set[tuple[int, int]]:
        """Candidates within one SF-group (local indices, i < j)."""
        try:
            return group_candidate_pairs(
                self.model, plans, tau=self.tau, space=self.space
            )
        except ValueError:
            # group exceeds the agnostic space: pass everything through
            # (the filter must not drop true equivalences)
            return set(itertools.combinations(range(len(plans)), 2))

    def candidate_pairs(self, plans: list[Plan]) -> set[tuple[int, int]]:
        """SF-group-wise candidates over a whole workload (global ids)."""
        out: set[tuple[int, int]] = set()
        for idxs in sf_groups(plans).values():
            pairs = self.group_pairs([plans[i] for i in idxs])
            out.update((idxs[a], idxs[b]) for a, b in pairs)
        return out

    def pair_distance(self, p1: Plan, p2: Plan) -> float:
        """Pairwise embedding distance (the ``≈_VMF`` predicate)."""
        Z = embed_group(self.model, [canonical_plan(p1), canonical_plan(p2)],
                        self.space)
        return float(np.linalg.norm(Z[0] - Z[1]))

    def pair_pass(self, p1: Plan, p2: Plan) -> bool:
        try:
            return self.pair_distance(p1, p2) < self.tau
        except ValueError:
            return True

