"""Vector matching filter (VMF) — §2.2, Definition 2.1.

Per SF-group: apply the *n*-ary db-agnostic encoding (§4.2.2), embed
every subexpression with the EMF's trained tree-convolution stack
(eval mode), and emit every pair within Euclidean radius τ as a
likely-equivalent candidate. The radius join is exact (like a FAISS
flat index): SF-groups are small, so comparing blocks of rows against
the whole group is cheaper than building an ANN graph and cannot miss
a pair.

A group enters as its :func:`~repro.encoding.agnostic.instance_group`,
which the §4.2.1 converter turns into its db-agnostic encoding. Both
executors of :mod:`repro.core.pipeline` call :func:`group_pairs` once
per SF-group; :func:`candidate_pairs` runs it over a whole workload.
:func:`pair_distances` is the pairwise ``≈_VMF`` distance that
:func:`calibrate_tau` and Table 5 use.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import convert_group, instance_group
from repro.encoding.instance import TreeEnc, Vocab
from repro.filters.schema_filter import sf_groups
from repro.nn.model import EMF
from repro.nn.train import pad_encs

DEFAULT_TAU = 1.0  # paper: FAISS radius d = 1 (§7 Implementation)
TARGET_RECALL = 0.98  # quantile of positive-pair distances that τ admits
_JOIN_BLOCK = 1 << 20  # float64 elements of one block's difference tensor


def embed_group(model: EMF, group: tuple[Vocab, list[TreeEnc]]) -> np.ndarray:
    """(n, h) embeddings of one SF-group's :func:`instance_group` under
    the group-wise n-ary db-agnostic encoding."""
    X, L, R, mask = pad_encs(convert_group(group[1], group[0]))
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
    model: EMF, group: tuple[Vocab, list[TreeEnc]], *, tau: float = DEFAULT_TAU
) -> set[tuple[int, int]]:
    """Candidate pairs (local indices, i < j) within one SF-group;
    raises ``ValueError`` when the group exceeds the agnostic space."""
    return radius_join(embed_group(model, group), tau)


def group_pairs(
    model: EMF, group: tuple[Vocab, list[TreeEnc]], *, tau: float
) -> tuple[set[tuple[int, int]], int]:
    """The VMF's survivors within one SF-group (local indices, i < j),
    and 1 if the group passed through whole, else 0.

    A group that exceeds the agnostic space passes through whole: the
    filter must not drop true equivalences."""
    try:
        return group_candidate_pairs(model, group, tau=tau), 0
    except ValueError:
        return set(itertools.combinations(range(len(group[1])), 2)), 1


def candidate_pairs(
    model: EMF, plans: list[Plan], *, tau: float
) -> set[tuple[int, int]]:
    """:func:`group_pairs` over every SF-group of a workload (workload
    indices, i < j)."""
    out: set[tuple[int, int]] = set()
    for idxs in sf_groups(plans).values():
        if len(idxs) < 2:
            continue
        pairs, _ = group_pairs(model, instance_group([plans[i] for i in idxs]), tau=tau)
        out.update((idxs[a], idxs[b]) for a, b in pairs)
    return out


def pair_distances(model: EMF, pairs: list[tuple[Plan, Plan]]) -> np.ndarray:
    """Embedding distance of each pair, each embedded as its own
    two-plan group; NaN for a pair outside the agnostic space."""
    out = np.full(len(pairs), np.nan)
    for k, pair in enumerate(pairs):
        try:
            Z = embed_group(model, instance_group(list(pair)))
        except ValueError:
            continue
        out[k] = np.linalg.norm(Z[0] - Z[1])
    return out


def calibrate_tau(model: EMF, positive_pairs: list[tuple[Plan, Plan]]) -> float:
    """Pick τ as the :data:`TARGET_RECALL` quantile of positive-pair
    embedding distances — the VMF must admit (nearly) all equivalences
    (§1: "ensure that equivalence pairs are admitted with high recall").
    Pairs outside the agnostic space are left out.
    """
    dists = pair_distances(model, positive_pairs)
    dists = dists[~np.isnan(dists)]
    if not len(dists):
        return DEFAULT_TAU
    tau = float(np.quantile(dists, TARGET_RECALL))
    return max(tau, 1e-3)  # equivalent pairs often embed identically
