"""Table 3 reproduction: EMF classifier comparison (MLP vs RF vs LR).

Train on TPC-H-lite labeled pairs, test on TPC-DS-lite labeled pairs
(cross-schema transfer, like the paper). The MLP is the tree-conv EMF;
RF and LR consume the same db-agnostic pair encodings flattened to one
vector — no structural inductive bias, which is the point.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ml.forest import RandomForest
from repro.ml.logistic import LogisticRegression
from repro.nn.model import EMF
from repro.nn.pretrained import EPOCHS, TRAIN_PAIRS
from repro.nn.train import PairTensors, encode_pairs, evaluate, metrics
from repro.workload.labeler import make_dataset
from repro.workload.schema import TPCDS_LITE, TPCH_LITE


@dataclass
class ClassifierRow:
    name: str
    accuracy: float
    f1: float
    train_seconds: float
    confusion: dict[str, int] = field(default_factory=dict)


@dataclass
class Table3Result:
    rows: list[ClassifierRow] = field(default_factory=list)
    n_train: int = 0
    n_test: int = 0

    def markdown(self) -> str:
        out = [
            f"train: {self.n_train} TPC-H-lite pairs; "
            f"test: {self.n_test} TPC-DS-lite pairs",
            "",
            "| Model Type | Accuracy | F1 | train s | tp/fp/fn/tn |",
            "|---|---|---|---|---|",
        ]
        for r in self.rows:
            c = r.confusion
            out.append(
                f"| {r.name} | {r.accuracy:.3f} | {r.f1:.3f} | "
                f"{r.train_seconds:.1f} | "
                f"{c.get('tp')}/{c.get('fp')}/{c.get('fn')}/{c.get('tn')} |"
            )
        out += [
            "",
            f"(MLP pretrained on {2 * TRAIN_PAIRS} TPC-H-lite pairs, "
            f"{EPOCHS} epochs; 'train s' is cache-load time when warm)",
        ]
        return "\n".join(out)


def _flatten(data: PairTensors) -> np.ndarray:
    """Raw flattened pair features for the non-structural baselines:
    both padded node matrices concatenated into one long vector — the
    straightforward way to hand the same featurization to a flat model,
    and the regime where the paper's RF/LR candidates performed poorly."""
    B = data.a[0].shape[0]
    return np.concatenate(
        [data.a[0].reshape(B, -1), data.b[0].reshape(B, -1)], axis=1
    ).astype(np.float32)


def run(
    mlp: EMF,
    *,
    n_test: int = 800,
    seed: int = 200,
    mlp_train_seconds: float,
) -> Table3Result:
    """``mlp`` is the pretrained EMF; its (cached) training time is
    passed in for the report."""
    test_ds = make_dataset(TPCDS_LITE, n_test, n_test, seed=seed)
    train_ds = make_dataset(TPCH_LITE, n_test, n_test, seed=seed + 1)
    # pad train and test to a common node count so flattened baseline
    # feature vectors align across schemas
    test = encode_pairs(test_ds, pad_to=24)
    train = encode_pairs(train_ds, pad_to=24)
    res = Table3Result(n_test=len(test))

    m = evaluate(mlp, test)
    res.rows.append(
        ClassifierRow("MLP (tree-conv EMF)", m["accuracy"], m["f1"],
                      mlp_train_seconds,
                      {k: m[k] for k in ("tp", "fp", "fn", "tn")})
    )

    res.n_train = len(train)
    Xtr, ytr = _flatten(train), train.y
    Xte, yte = _flatten(test), test.y

    t0 = time.perf_counter()
    rf = RandomForest(n_trees=20, max_depth=10, seed=1).fit(Xtr, ytr)
    t_rf = time.perf_counter() - t0
    mm = metrics(yte, rf.predict(Xte))
    res.rows.append(
        ClassifierRow("RF", mm["accuracy"], mm["f1"], t_rf,
                      {k: mm[k] for k in ("tp", "fp", "fn", "tn")})
    )

    t0 = time.perf_counter()
    lr = LogisticRegression(epochs=250, seed=1).fit(Xtr, ytr)
    t_lr = time.perf_counter() - t0
    mm = metrics(yte, lr.predict(Xte))
    res.rows.append(
        ClassifierRow("LR", mm["accuracy"], mm["f1"], t_lr,
                      {k: mm[k] for k in ("tp", "fp", "fn", "tn")})
    )
    return res
