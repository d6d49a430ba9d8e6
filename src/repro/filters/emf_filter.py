"""Equivalence model filter (EMF) as a pipeline stage (§2.2).

:func:`emf_scores` scores index pairs into a group prepared once by
:func:`~repro.encoding.agnostic.instance_group`, the packed preparation
the VMF reads too: the §4.2.1 converter gives each pair one slot map
from instance table and column to agnostic slot, and converts each
distinct side of a batch of pairs once into packed node slots, so no
plan is re-walked and nothing is padded; the model embeds each side
once and gathers it into every pair that holds it. The pipeline calls
it per SF-group, on the driver or in a Spark task; Table 1 on a whole
workload.

A pair outside the agnostic space scores 1.0: it passes, and is counted.
A pair passes when its score is at least :data:`EMF_THRESHOLD`, which
sits *below* the 0.5 classification threshold: as the paper stresses
(§7.1.1), false negatives are missed equivalences and "should be
minimized at all costs", while false positives only cost wasted
verifier work.
"""
from __future__ import annotations

import numpy as np

from repro.encoding.agnostic import InstanceGroup, pair_batches
# the benchmark's tracer looks encode_pair_agnostic up here until ROADMAP item 4 step A
from repro.encoding.agnostic import encode_pair_agnostic  # noqa: F401
from repro.nn.model import EMF

EMF_THRESHOLD = 0.2


def emf_scores(
    model: EMF, pairs: list[tuple[int, int]], group: InstanceGroup
) -> tuple[np.ndarray, int]:
    """Equivalence probabilities for index pairs into ``group``, in
    batches of :data:`~repro.encoding.agnostic.PAIR_BATCH` in-space pairs, and the number of
    out-of-space pairs among them (each scored 1.0)."""
    out = np.ones(len(pairs))
    scored = 0
    for ks, sides, first, second in pair_batches(group, pairs):
        out[ks] = model.predict_proba(sides, first, second)
        scored += len(ks)
    return out, len(pairs) - scored
