"""Shared trained EMF instance.

The paper pretrains the EMF once on a synthetic TPC-H workload (§5) and
reuses it everywhere (EMF filter, VMF embeddings, transfer tests). This
module reproduces that: one deterministic training run on TPC-H-lite
labeled pairs, cached under ``results/models`` keyed by a config hash so
every test/benchmark in a checkout shares it.
"""
from __future__ import annotations

import os

from repro.encoding.agnostic import DEFAULT_SPACE
from repro.nn.model import EMF, EMFConfig
from repro.nn.train import cache_key, cached_model, encode_pairs, train_emf
from repro.workload.labeler import make_dataset
from repro.workload.schema import TPCH_LITE

# Training-set size and epochs are scaled down from the paper's ~47k
# pairs / 20 epochs to keep pure-numpy training in minutes (DESIGN.md).
TRAIN_PAIRS = 2000  # per class
EPOCHS = 30
CONFIG = EMFConfig(
    d_in=DEFAULT_SPACE.nv_size,
    conv=(96, 64),
    fc=(64, 32),
    dropout=0.2,
    seed=0,
)


def results_dir() -> str:
    return os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", "..", "results"),
    )


def default_model(*, train_pairs: int = TRAIN_PAIRS, epochs: int = EPOCHS) -> EMF:
    """The TPC-H-lite-trained EMF (trained on first use, then cached)."""
    key = cache_key(
        schema="tpch_lite",
        pairs=train_pairs,
        epochs=epochs,
        cfg=CONFIG,
        space=DEFAULT_SPACE,
        v=5,  # bump when the encoding or the training changes the weights
    )

    def build() -> EMF:
        ds = make_dataset(TPCH_LITE, train_pairs, train_pairs, seed=10)
        data = encode_pairs(ds)
        model = EMF(CONFIG)
        train_emf(model, data, epochs=epochs, batch_size=64, seed=2)
        return model

    return cached_model(os.path.join(results_dir(), "models"), key, CONFIG, build)
