"""SSFL tests (§6, Algorithm 1; Figure 9 qualitative claim)."""
import numpy as np
import pytest

from repro.encoding.agnostic import DEFAULT_SPACE
from repro.nn.model import EMF, EMFConfig
from repro.nn.train import encode_pairs, evaluate
from repro.ssfl.loop import (
    confidence_level,
    sample_filter_balanced,
    sample_random,
    ssfl,
)
from repro.verifier.av import Verifier
from repro.workload.labeler import make_dataset, make_planted_workload
from repro.workload.schema import TPCDS_LITE, TPCH_LITE
from repro.workload.rewrites import NORMALIZATION, SYNTACTIC


def _degenerate_model(seed=0):
    """A weak initial model: trained briefly on join-free TPC-H pairs
    with only syntactic/normalization rewrites — the §7.3 scenario of a
    model meeting an unseen workload."""
    from repro.nn.train import train_emf
    from repro.workload.generator import random_plans

    ds = make_dataset(
        TPCH_LITE, 60, 60, seed=40,
        families=tuple(SYNTACTIC) + tuple(NORMALIZATION),
    )
    data = encode_pairs(ds)
    cfg = EMFConfig(d_in=DEFAULT_SPACE.nv_size, conv=(96, 64),
                    fc=(64, 32), dropout=0.2, seed=seed)
    model = EMF(cfg)
    train_emf(model, data, epochs=3, batch_size=32, seed=seed)
    return model


def test_confidence_level_definition():
    assert confidence_level(np.array([])) == 1.0
    assert confidence_level(np.array([0.99, 0.01]), 0.9) == 1.0
    assert confidence_level(np.array([0.5, 0.6]), 0.9) == 0.0
    assert confidence_level(np.array([0.95, 0.5]), 0.9) == 0.5


def test_filter_balanced_sampling_finds_positives(emf_model):
    w = make_planted_workload(TPCDS_LITE, n_subexpr=40, n_equiv=6, seed=50)
    g = np.random.default_rng(0)
    sample = sample_filter_balanced(
        w.plans, emf_model, Verifier(), tau=5.0, batch=64, rng=g
    )
    n_pos = sum(p.label for p in sample)
    assert n_pos >= 4  # filters surface most planted equivalences
    assert any(not p.label for p in sample)  # balanced with negatives


def test_random_sampling_rarely_finds_positives():
    w = make_planted_workload(TPCDS_LITE, n_subexpr=40, n_equiv=4, seed=51)
    g = np.random.default_rng(1)
    sample = sample_random(w.plans, Verifier(), batch=64, rng=g)
    n_pos = sum(p.label for p in sample)
    # 4 positives among 780 pairs → a 64-pair sample has <1 in expectation
    assert n_pos <= 2
    assert all(isinstance(p.label, (bool, np.bool_)) for p in sample)


def test_ssfl_stops_when_confident(emf_model):
    """A mature model should trigger no fine-tuning iterations."""
    w = make_planted_workload(TPCH_LITE, n_subexpr=25, n_equiv=3, seed=52)
    res = ssfl(emf_model, w.plans, threshold=0.5, max_iterations=3, seed=0)
    assert res.iterations == 0


def test_ssfl_filter_beats_random_sampling():
    """Figure 9's claim, at smoke scale: starting from a weak model,
    filter-balanced sampling improves equivalence detection more than
    random sampling for the same labeling budget."""
    w = make_planted_workload(TPCDS_LITE, n_subexpr=45, n_equiv=8, seed=53)
    eval_ds = make_dataset(TPCDS_LITE, 80, 80, seed=54)
    eval_data = encode_pairs(eval_ds)

    f1 = {}
    for sampler in ("filter", "random"):
        model = _degenerate_model(seed=7)
        res = ssfl(
            model, w.plans, threshold=0.95, tau=6.0, batch=96,
            max_iterations=2, fine_tune_epochs=6, sampler=sampler, seed=3,
        )
        assert res.iterations >= 1
        f1[sampler] = evaluate(model, eval_data)["f1"]
        if sampler == "filter":
            assert sum(res.positives_found) >= 3
    assert f1["filter"] > f1["random"], f1
