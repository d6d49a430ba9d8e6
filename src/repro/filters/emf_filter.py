"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

Scores candidate pairs with the trained tree-conv MLP in batches. The
pipeline calls :func:`emf_scores` once per SF-group, on the driver or
inside a Spark task.

The filter threshold defaults to 0.2, *below* the 0.5 classification
threshold: as the paper stresses (§7.1.1), false negatives are missed
equivalences and "should be minimized at all costs", while false
positives only cost wasted verifier work.
"""
from __future__ import annotations

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import DEFAULT_SPACE, AgnosticSpace, encode_pair_agnostic
from repro.encoding.canonical_form import canonical_plan
from repro.nn.model import EMF
from repro.nn.train import pad_encs

DEFAULT_EMF_THRESHOLD = 0.2


def emf_scores(
    model: EMF,
    pairs: list[tuple[Plan, Plan]],
    *,
    space: AgnosticSpace = DEFAULT_SPACE,
    batch_size: int = 256,
) -> np.ndarray:
    """Equivalence probabilities for plan pairs (driver-side)."""
    if not pairs:
        return np.array([])
    enc_a, enc_b, keep = [], [], []
    for k, (p1, p2) in enumerate(pairs):
        try:
            ea, eb = encode_pair_agnostic(
                canonical_plan(p1), canonical_plan(p2), space
            )
        except ValueError:
            continue  # out-of-space pairs default to proba 1.0 (pass)
        enc_a.append(ea)
        enc_b.append(eb)
        keep.append(k)
    out = np.ones(len(pairs))
    for s in range(0, len(keep), batch_size):
        ea = enc_a[s : s + batch_size]
        eb = enc_b[s : s + batch_size]
        m = max(
            max(e.X.shape[0] for e in ea), max(e.X.shape[0] for e in eb)
        )
        proba = model.predict_proba(pad_encs(ea, m), pad_encs(eb, m))
        out[np.array(keep[s : s + batch_size])] = proba
    return out


def emf_scores_workload(
    model: EMF,
    plans: list[Plan],
    pairs: list[tuple[int, int]],
    vocab,
    *,
    space: AgnosticSpace = DEFAULT_SPACE,
    batch_size: int = 512,
) -> np.ndarray:
    """Workload-scale EMF scoring via the §4.2.1 converter.

    Instance-encodes each plan once (O(n)), then converts matrices
    pairwise to the db-agnostic space — avoiding the O(n²) re-walk of
    plans that naive pairwise encoding costs. This is the paper's
    "lightweight converter" fast path; §4.2.1 reports it 1.8× faster
    than encoding pairs from scratch (we measure our own factor in
    EXPERIMENTS.md).
    """
    from repro.encoding.agnostic import convert_pair
    from repro.encoding.canonical_form import canonical_plan
    from repro.encoding.instance import encode_tree

    encs = [encode_tree(canonical_plan(p), vocab) for p in plans]
    out = np.ones(len(pairs))
    batch_a, batch_b, batch_k = [], [], []

    def flush():
        if not batch_a:
            return
        m = max(
            max(e.X.shape[0] for e in batch_a),
            max(e.X.shape[0] for e in batch_b),
        )
        proba = model.predict_proba(
            pad_encs(batch_a, m), pad_encs(batch_b, m)
        )
        out[np.array(batch_k)] = proba
        batch_a.clear()
        batch_b.clear()
        batch_k.clear()

    for k, (i, j) in enumerate(pairs):
        try:
            ea, eb = convert_pair(encs[i], encs[j], vocab, space)
        except ValueError:
            continue  # out-of-space pair passes through (proba 1.0)
        batch_a.append(ea)
        batch_b.append(eb)
        batch_k.append(k)
        if len(batch_a) >= batch_size:
            flush()
    flush()
    return out

