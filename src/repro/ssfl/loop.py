"""Semi-supervised feedback loop (SSFL) — §6, Algorithm 1.

Monitors EMF confidence over a workload; when mean confidence drops
below ``T_h`` it draws a new labeled sample and fine-tunes. The key
mechanism is *filter-balanced sampling*: positives are found by running
the cheap SF and VMF filters over the workload cross-product and
AV-labeling the survivors (``S₊ ← AV(VMF(SF(W×W)))``); negatives are
the AV-rejected survivors plus random pairs to balance. Random-sampling
mode (the paper's baseline in Figure 9) labels uniformly drawn pairs —
which almost never yields positives.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.plan import Plan
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import candidate_pairs
from repro.nn.model import EMF
from repro.nn.optim import Adam
from repro.nn.train import encode_pairs, predict, train_emf
from repro.verifier.av import Verifier
from repro.workload.labeler import LabeledPair

DEFAULT_TH = 0.9


def confidence_level(probas: np.ndarray, threshold: float = DEFAULT_TH) -> float:
    """SSFL-CL (Definition 6.1): fraction of pairs where the model is
    confident either way, i.e. max(P₀, P₁) ≥ T_h."""
    if len(probas) == 0:
        return 1.0
    conf = np.maximum(probas, 1.0 - probas)
    return float((conf >= threshold).mean())


def _workload_pairs(plans: list[Plan]) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(len(plans)), 2))


def sample_filter_balanced(
    plans: list[Plan],
    model: EMF,
    verifier: Verifier,
    *,
    tau: float,
    batch: int,
    rng: np.random.Generator,
) -> list[LabeledPair]:
    """S₊ ← AV(VMF(SF(W×W))); balance with hard + random negatives."""
    candidates = sorted(candidate_pairs(model, plans, tau=tau))
    rng.shuffle(candidates)
    pos: list[LabeledPair] = []
    neg: list[LabeledPair] = []
    for i, j in candidates[:batch]:
        lp = LabeledPair(plans[i], plans[j],
                         verifier.equivalent(plans[i], plans[j]), "ssfl-filter")
        (pos if lp.label else neg).append(lp)
    # balance: top up negatives with random same-SF-group pairs. The
    # attempt budget matters: with a permissive τ the VMF candidate set
    # can cover *every* same-group pair, leaving nothing to draw.
    groups = [idxs for idxs in sf_groups(plans).values() if len(idxs) > 1]
    cand_set = set(candidates)
    seen_neg: set[tuple[int, int]] = set()
    attempts = 0
    while len(neg) < max(len(pos), batch // 4) and groups and attempts < 20 * batch:
        attempts += 1
        idxs = groups[int(rng.integers(0, len(groups)))]
        i, j = rng.choice(idxs, size=2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        if (i, j) in cand_set or (i, j) in seen_neg:
            continue
        seen_neg.add((i, j))
        neg.append(
            LabeledPair(plans[i], plans[j],
                        verifier.equivalent(plans[i], plans[j]), "ssfl-random-neg")
        )
    sample = pos + neg
    rng.shuffle(sample)
    return sample[:batch]


def sample_random(
    plans: list[Plan],
    verifier: Verifier,
    *,
    batch: int,
    rng: np.random.Generator,
) -> list[LabeledPair]:
    """Uniform pair sampling + AV labeling (Figure 9's weak baseline)."""
    pairs = _workload_pairs(plans)
    idx = rng.choice(len(pairs), size=min(batch, len(pairs)), replace=False)
    return [
        LabeledPair(plans[pairs[k][0]], plans[pairs[k][1]],
                    verifier.equivalent(plans[pairs[k][0]], plans[pairs[k][1]]),
                    "ssfl-rand")
        for k in idx
    ]


@dataclass
class SSFLResult:
    iterations: int
    confidences: list[float] = field(default_factory=list)
    sample_sizes: list[int] = field(default_factory=list)
    positives_found: list[int] = field(default_factory=list)


def ssfl(
    model: EMF,
    workload: list[Plan],
    *,
    threshold: float = DEFAULT_TH,
    tau: float = 1.0,
    batch: int = 512,
    max_iterations: int = 5,
    fine_tune_epochs: int = 8,
    sampler: str = "filter",
    monitor_pairs: int = 400,
    seed: int = 0,
    verifier: Verifier | None = None,
) -> SSFLResult:
    """Algorithm 1. Mutates ``model`` in place (fine-tuning)."""
    rng = np.random.default_rng(seed)
    verifier = verifier or Verifier()
    opt = Adam(model.layers)
    result = SSFLResult(0)
    all_pairs = _workload_pairs(workload)
    monitor_idx = rng.choice(
        len(all_pairs), size=min(monitor_pairs, len(all_pairs)), replace=False
    )
    monitor = [
        LabeledPair(workload[all_pairs[k][0]], workload[all_pairs[k][1]], False)
        for k in monitor_idx
    ]
    monitor_data = encode_pairs(monitor)
    accumulated: list[LabeledPair] = []
    for _ in range(max_iterations):
        probas = predict(model, monitor_data)
        cl = confidence_level(probas, threshold)
        result.confidences.append(cl)
        if cl >= threshold:
            break
        if sampler == "filter":
            sample = sample_filter_balanced(
                workload, model, verifier, tau=tau, batch=batch, rng=rng
            )
        else:
            sample = sample_random(workload, verifier, batch=batch, rng=rng)
        result.sample_sizes.append(len(sample))
        result.positives_found.append(sum(p.label for p in sample))
        result.iterations += 1
        if not sample:
            continue
        accumulated += sample
        train_emf(
            model, encode_pairs(accumulated), epochs=fine_tune_epochs, batch_size=64,
            seed=int(rng.integers(0, 2**31)), optimizer=opt,
        )
    probas = predict(model, monitor_data)
    result.confidences.append(confidence_level(probas, threshold))
    return result

