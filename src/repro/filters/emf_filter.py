"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

:func:`emf_scores` scores index pairs into a group prepared once by
:func:`~repro.encoding.agnostic.instance_group`, the preparation the
VMF reads too: the §4.2.1 converter builds each pair's db-agnostic
encoding, so no plan is re-walked per pair. The pipeline calls it per
SF-group, on the driver or in a Spark task; Table 1 on a whole workload.

A pair outside the agnostic space scores 1.0: it passes, and is counted.
A pair passes when its score is at least :data:`EMF_THRESHOLD`, which
sits *below* the 0.5 classification threshold: as the paper stresses
(§7.1.1), false negatives are missed equivalences and "should be
minimized at all costs", while false positives only cost wasted
verifier work.
"""
from __future__ import annotations

import itertools

import numpy as np

# the benchmark's tracer looks encode_pair_agnostic up here until ROADMAP item 5 step A
from repro.encoding.agnostic import convert_pair, encode_pair_agnostic  # noqa: F401
from repro.encoding.instance import TreeEnc, Vocab
from repro.nn.model import EMF
from repro.nn.train import pad_encs

EMF_THRESHOLD = 0.2
EMF_BATCH = 256


def _converted(pairs: list[tuple[int, int]], group: tuple[Vocab, list[TreeEnc]]):
    """``(k, enc_a, enc_b)`` for every pair ``k`` in the agnostic space."""
    vocab, encs = group
    for k, (i, j) in enumerate(pairs):
        try:
            ea, eb = convert_pair(encs[i], encs[j], vocab)
        except ValueError:
            continue  # out-of-space pair passes through (proba 1.0)
        yield k, ea, eb


def emf_scores(
    model: EMF, pairs: list[tuple[int, int]], group: tuple[Vocab, list[TreeEnc]]
) -> tuple[np.ndarray, int]:
    """Equivalence probabilities for index pairs into ``group``, in
    batches of :data:`EMF_BATCH`, and the number of out-of-space pairs
    among them (each scored 1.0)."""
    out = np.ones(len(pairs))
    scored = 0
    converted = _converted(pairs, group)
    while batch := list(itertools.islice(converted, EMF_BATCH)):
        ks, ea, eb = zip(*batch)
        m = max(e.X.shape[0] for e in ea + eb)
        out[list(ks)] = model.predict_proba(pad_encs(ea, m), pad_encs(eb, m))
        scored += len(ks)
    return out, len(pairs) - scored
