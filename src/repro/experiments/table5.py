"""Table 5 reproduction: VMF quality (train TPC-H, test TPC-DS).

The VMF — EMF conv embeddings + radius threshold — applied as a
pairwise classifier to labeled TPC-DS-lite pairs. Paper profile:
accuracy 0.74, precision 0.42, recall 0.98, F1 0.60 — a deliberately
high-recall / moderate-precision filter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.filters.vmf import calibrate_tau, pair_distances
from repro.nn.model import EMF
from repro.nn.train import metrics
from repro.workload.labeler import make_dataset, make_positive_pairs
from repro.workload.schema import TPCDS_LITE


@dataclass
class Table5Result:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tau: float
    n_pairs: int
    seconds: float

    def markdown(self) -> str:
        return "\n".join([
            f"{self.n_pairs} labeled TPC-DS-lite pairs, τ={self.tau:.2f} "
            f"(calibrated for 98% positive-pair recall), "
            f"{self.seconds:.1f}s",
            "",
            "| Accuracy | Precision | Recall | F1 |",
            "|---|---|---|---|",
            f"| {self.accuracy:.2f} | {self.precision:.2f} "
            f"| {self.recall:.2f} | {self.f1:.2f} |",
        ])


def run(model: EMF, *, n_pairs: int = 600, seed: int = 400) -> Table5Result:
    cal = make_positive_pairs(TPCDS_LITE, 100, seed=seed)
    tau = calibrate_tau(model, [(p.p1, p.p2) for p in cal])
    ds = make_dataset(TPCDS_LITE, n_pairs, n_pairs, seed=seed + 1)
    t0 = time.perf_counter()
    y = np.array([p.label for p in ds], dtype=float)
    d = pair_distances(model, [(p.p1, p.p2) for p in ds])
    pred = np.isnan(d) | (d <= tau)  # out-of-space pairs pass
    secs = time.perf_counter() - t0
    m = metrics(y, pred)
    return Table5Result(
        m["accuracy"], m["precision"], m["recall"], m["f1"],
        tau, len(ds), secs,
    )
