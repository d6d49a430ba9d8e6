"""EMF training loop, batching, and metrics (§5, §7.1).

Turns labeled plan pairs into padded db-agnostic tensors, trains the
EMF with Adam + BCE, and computes the accuracy/precision/recall/F1 and
confusion-matrix numbers the paper reports in Tables 3–5.
"""
from __future__ import annotations

import hashlib
import logging
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from repro.encoding.agnostic import encode_pair_agnostic
from repro.encoding.instance import TreeEnc
from repro.nn.model import EMF, EMFConfig
from repro.nn.optim import Adam
from repro.workload.labeler import LabeledPair

log = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Batching
# --------------------------------------------------------------------------


def pad_encs(encs: list[TreeEnc], m: int | None = None):
    """Pad a list of TreeEncs to (B, M, D) + child/mask arrays."""
    M = m or max(e.X.shape[0] for e in encs)
    B = len(encs)
    D = encs[0].X.shape[1]
    X = np.zeros((B, M, D), dtype=np.float64)
    L = np.full((B, M), -1, dtype=np.int32)
    R = np.full((B, M), -1, dtype=np.int32)
    mask = np.zeros((B, M), dtype=np.float64)
    for i, e in enumerate(encs):
        k = e.X.shape[0]
        if k > M:
            raise ValueError(f"plan with {k} nodes exceeds pad size {M}")
        X[i, :k] = e.X
        L[i, :k] = e.left
        R[i, :k] = e.right
        mask[i, :k] = 1.0
    return X, L, R, mask


@dataclass
class PairTensors:
    """Padded tensors for a labeled pair dataset."""

    a: tuple  # (X, L, R, mask)
    b: tuple
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx) -> "PairTensors":
        sel = lambda t: tuple(arr[idx] for arr in t)
        return PairTensors(sel(self.a), sel(self.b), self.y[idx])


def encode_pairs(
    pairs: list[LabeledPair], *, pad_to: int | None = None
) -> PairTensors:
    """DB-agnostic pairwise encoding of a labeled dataset (§4.2), padded
    to the largest node count (at least ``pad_to``).

    Plans are structurally canonicalized first
    (:mod:`repro.encoding.canonical_form`).
    """
    from repro.encoding.canonical_form import canonical_plan

    enc_a, enc_b, ys = [], [], []
    for p in pairs:
        try:
            ea, eb = encode_pair_agnostic(canonical_plan(p.p1), canonical_plan(p.p2))
        except ValueError:
            continue  # exceeds the agnostic space — drop, as the paper's n/m bound does
        enc_a.append(ea)
        enc_b.append(eb)
        ys.append(float(p.label))
    m = max(max(e.X.shape[0] for e in enc_a), max(e.X.shape[0] for e in enc_b))
    if pad_to is not None:
        m = max(m, pad_to)
    return PairTensors(pad_encs(enc_a, m), pad_encs(enc_b, m), np.array(ys))


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
    lr: float = 1e-3,
    weight_decay: float = 5e-4,
    seed: int = 0,
    optimizer: Adam | None = None,
) -> list[float]:
    """Minibatch Adam training; returns per-epoch mean losses.

    Pass an existing ``optimizer`` to fine-tune incrementally (the SSFL
    path, §6) while keeping Adam moments.
    """
    opt = optimizer or Adam(model.layers, lr=lr, weight_decay=weight_decay)
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


def predict(model: EMF, data: PairTensors, *, batch_size: int = 256) -> np.ndarray:
    out = []
    for s in range(0, len(data), batch_size):
        idx = np.arange(s, min(s + batch_size, len(data)))
        b = data.subset(idx)
        out.append(model.predict_proba(b.a, b.b))
    return np.concatenate(out) if out else np.array([])


def evaluate(model: EMF, data: PairTensors, *, threshold: float = 0.5) -> dict:
    p = predict(model, data)
    return metrics(data.y, p >= threshold)


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
