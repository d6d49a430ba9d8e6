"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

Scores candidate pairs with the trained tree-conv MLP in batches of
:data:`EMF_BATCH`. Two encoders feed the same batch/pad/predict loop:

- :func:`emf_scores` encodes each pair of plans from scratch (§4.2);
  the pipeline calls it once per SF-group, on the driver or inside a
  Spark task;
- :func:`emf_scores_workload` instance-encodes each plan once and
  converts matrices per pair (the §4.2.1 converter), for scoring every
  pair of a workload.

A pair outside the agnostic space scores 1.0: it passes. A pair passes
the filter when its score is at least :data:`EMF_THRESHOLD`, which sits
*below* the 0.5 classification threshold: as the paper stresses
(§7.1.1), false negatives are missed equivalences and "should be
minimized at all costs", while false positives only cost wasted
verifier work.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import convert_pair, encode_pair_agnostic
from repro.encoding.canonical_form import canonical_plan
from repro.encoding.instance import encode_tree
from repro.nn.model import EMF
from repro.nn.train import pad_encs

EMF_THRESHOLD = 0.2
EMF_BATCH = 256


def _encoded(pairs: list, encode):
    """``(k, enc_a, enc_b)`` for every pair ``k`` that ``encode`` can
    place in the agnostic space."""
    for k, (a, b) in enumerate(pairs):
        try:
            ea, eb = encode(a, b)
        except ValueError:
            continue  # out-of-space pair passes through (proba 1.0)
        yield k, ea, eb


def _predict(model: EMF, pairs: list, encode) -> np.ndarray:
    """Probabilities for ``pairs``, each encoded by ``encode(a, b)``."""
    out = np.ones(len(pairs))
    encoded = _encoded(pairs, encode)
    while batch := list(itertools.islice(encoded, EMF_BATCH)):
        ks, ea, eb = zip(*batch)
        m = max(e.X.shape[0] for e in ea + eb)
        out[list(ks)] = model.predict_proba(pad_encs(ea, m), pad_encs(eb, m))
    return out


def emf_scores(model: EMF, pairs: list[tuple[Plan, Plan]]) -> np.ndarray:
    """Equivalence probabilities for plan pairs, each pair encoded from
    scratch."""
    return _predict(
        model, pairs,
        lambda p1, p2: encode_pair_agnostic(canonical_plan(p1), canonical_plan(p2)),
    )


def emf_scores_workload(
    model: EMF, plans: list[Plan], pairs: list[tuple[int, int]], vocab
) -> np.ndarray:
    """Equivalence probabilities for index pairs into ``plans``, via the
    §4.2.1 converter.

    Instance-encodes each plan once (O(n)), then converts matrices
    pairwise to the db-agnostic space — avoiding the O(n²) re-walk of
    plans that naive pairwise encoding costs. This is the paper's
    "lightweight converter" fast path; §4.2.1 reports it 1.8× faster
    than encoding pairs from scratch (we measure our own factor in
    EXPERIMENTS.md).
    """
    encs = [encode_tree(canonical_plan(p), vocab) for p in plans]
    return _predict(
        model, pairs, lambda i, j: convert_pair(encs[i], encs[j], vocab)
    )
