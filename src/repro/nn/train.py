"""EMF training loop and metrics (§5, §7.1).

Labeled plan pairs go through the cascade's pair encoder, the §4.2.1
converter (:func:`~repro.encoding.agnostic.plan_pair_batches`).
Training gathers each batch's pairs out of its packed sides
(:func:`~repro.encoding.instance.take`), concatenates them into one
:class:`PairTensors` and draws Adam + BCE minibatches from it;
prediction scores the batches as they come.
Metrics are the accuracy, precision, recall, F1 and confusion counts
of Tables 3–5.
"""
from __future__ import annotations

import hashlib
import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.core.plan import Plan
from repro.encoding.agnostic import plan_pair_batches
from repro.encoding.instance import Packed, concat, take
from repro.nn.model import EMF, EMFConfig
from repro.nn.optim import Adam
from repro.workload.labeler import LabeledPair

log = logging.getLogger(__name__)


@dataclass
class PairTensors:
    """Packed trees of a labeled pair dataset: pair ``k`` is tree ``k``
    of ``a`` and of ``b``, labelled ``y[k]``."""

    a: Packed
    b: Packed
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx) -> "PairTensors":
        return PairTensors(take(self.a, idx), take(self.b, idx), self.y[idx])


def encode_pairs(pairs: list[LabeledPair]) -> PairTensors:
    """DB-agnostic pairwise encoding of a labeled dataset (§4.2). Pairs
    outside the agnostic space are dropped, as the paper's n/m bound
    does."""
    batches = list(plan_pair_batches([(p.p1, p.p2) for p in pairs]))
    if not batches:  # no pair fits: zero pairs
        none = np.zeros(0, np.intp)
        empty = Packed(none, np.zeros((0, 0), np.intp), np.zeros((0, 0)), none, none)
        return PairTensors(empty, empty, np.zeros(0))
    ks, sides, first, second = zip(*batches)
    y = np.array([float(pairs[k].label) for k in np.concatenate(ks)])
    return PairTensors(concat(list(map(take, sides, first))),
                       concat(list(map(take, sides, second))), y)


# --------------------------------------------------------------------------
# Loss + metrics
# --------------------------------------------------------------------------


def bce_with_logits(logits: np.ndarray, y: np.ndarray):
    """Numerically stable BCE; returns (loss, dlogits)."""
    z = logits
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    p = 1.0 / (1.0 + np.exp(-z))
    return float(loss.mean()), (p - y) / len(y)


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    t, p = y_true.astype(bool), y_pred.astype(bool)
    return {
        "tp": int((t & p).sum()),
        "fp": int((~t & p).sum()),
        "fn": int((t & ~p).sum()),
        "tn": int((~t & ~p).sum()),
    }


def metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, float]:
    c = confusion(y_true, y_pred)
    tp, fp, fn, tn = c["tp"], c["fp"], c["fn"], c["tn"]
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return {
        "accuracy": (tp + tn) / max(len(y_true), 1),
        "precision": prec,
        "recall": rec,
        "f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
        "tpr": rec,
        "tnr": tn / (tn + fp) if tn + fp else 0.0,
        **c,
    }


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------


def train_emf(
    model: EMF,
    data: PairTensors,
    *,
    epochs: int = 20,
    batch_size: int = 64,
    weight_decay: float = 5e-4,
    seed: int = 0,
    optimizer: Adam | None = None,
) -> list[float]:
    """Minibatch Adam training; returns per-epoch mean losses.

    Pass an existing ``optimizer`` to fine-tune incrementally (the SSFL
    path, §6) while keeping Adam moments.
    """
    opt = optimizer or Adam(model.layers, weight_decay=weight_decay)
    g = np.random.default_rng(seed)
    losses = []
    for epoch in range(epochs):
        order = g.permutation(len(data))
        total, nb = 0.0, 0
        for s in range(0, len(order), batch_size):
            idx = order[s : s + batch_size]
            batch = data.subset(idx)
            opt.zero_grads()
            logits, cache = model.forward_pair(batch.a, batch.b, train=True)
            loss, dlogits = bce_with_logits(logits, batch.y)
            model.backward_pair(cache, dlogits)
            opt.step()
            total += loss
            nb += 1
        losses.append(total / max(nb, 1))
        log.debug("epoch %d: loss %.4f", epoch, losses[-1])
    return losses


def predict(model: EMF, pairs: list[tuple[Plan, Plan]]) -> tuple[np.ndarray, np.ndarray]:
    """Equivalence probabilities of the plan pairs that fit the agnostic
    space: (their positions in ``pairs``, probabilities)."""
    pos, proba = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for ks, sides, first, second in plan_pair_batches(pairs):
        pos.append(ks)
        proba.append(model.predict_proba(sides, first, second))
    return np.concatenate(pos), np.concatenate(proba)


def evaluate(model: EMF, pairs: list[LabeledPair]) -> dict:
    """:func:`metrics` of the EMF's 0.5-threshold decisions over the
    pairs that fit the agnostic space."""
    pos, proba = predict(model, [(p.p1, p.p2) for p in pairs])
    y = np.array([float(pairs[k].label) for k in pos])
    return metrics(y, proba >= 0.5)


# --------------------------------------------------------------------------
# Cached training (shared across tests/benchmarks)
# --------------------------------------------------------------------------


def cache_key(**kw) -> str:
    s = ";".join(f"{k}={kw[k]}" for k in sorted(kw))
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def cached_model(path_dir: str, key: str, config: EMFConfig, build) -> EMF:
    """Load a trained EMF from ``path_dir/emf_<key>.npz`` or build+save it.

    A cache file that does not load, or holds a model of another config
    than ``config``, is rebuilt. The new file is written aside and
    renamed into place, so no reader sees a partial file."""
    os.makedirs(path_dir, exist_ok=True)
    path = os.path.join(path_dir, f"emf_{key}.npz")
    try:
        model = EMF.load(path)
        if model.config == config:
            return model
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        pass  # missing or damaged: rebuild
    model = build()
    fd, tmp = tempfile.mkstemp(dir=path_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(model.to_bytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return model
