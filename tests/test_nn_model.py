"""End-to-end EMF model tests: pair gradient check, training sanity,
save/load, and actual learning on a small workload."""
import numpy as np
import pytest

from repro.nn.model import EMF, EMFConfig
from repro.nn.train import (
    PairTensors,
    bce_with_logits,
    cache_key,
    cached_model,
    confusion,
    encode_pairs,
    evaluate,
    metrics,
    pad_encs,
    predict,
    train_emf,
)
from repro.workload.labeler import make_dataset
from repro.workload.schema import TPCH_LITE

_CFG = EMFConfig(d_in=7, conv=(8, 6), fc=(10, 5), dropout=0.0, seed=3)


def _pair_batch(B=3, M=4, D=7, seed=0):
    g = np.random.default_rng(seed)
    mk = lambda: (
        g.standard_normal((B, M, D)),
        np.where(g.random((B, M)) < 0.5, g.integers(0, M, (B, M)), -1).astype(np.int32),
        np.full((B, M), -1, dtype=np.int32),
        np.ones((B, M)),
    )
    return mk(), mk(), g.integers(0, 2, B).astype(float)


def test_forward_pair_shape():
    a, b, y = _pair_batch()
    model = EMF(_CFG)
    logits, _ = model.forward_pair(a, b, train=False)
    assert logits.shape == (3,)


def test_pair_numeric_gradient():
    a, b, y = _pair_batch()
    model = EMF(_CFG)

    def loss():
        logits, _ = model.forward_pair(a, b, train=True)
        l, _ = bce_with_logits(logits, y)
        return l

    logits, cache = model.forward_pair(a, b, train=True)
    _, dlogits = bce_with_logits(logits, y)
    for layer in model.layers:
        layer.zero_grads()
    model.backward_pair(cache, dlogits)
    # check a parameter from each depth: conv1.Wl, fc1.W, fc3.b
    for layer, pname in [(model.conv1, "Wl"), (model.fc1, "W"), (model.fc3, "b")]:
        p = layer.p[pname]
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        # subsample entries for speed
        count = 0
        while not it.finished and count < 12:
            i = it.multi_index
            old = p[i]
            p[i] = old + 1e-6
            fp = loss()
            p[i] = old - 1e-6
            fm = loss()
            p[i] = old
            num = (fp - fm) / 2e-6
            assert abs(layer.g[pname][i] - num) < 1e-4, (pname, i)
            count += 1
            it.iternext()


def test_symmetric_embedding_shared_weights():
    a, b, y = _pair_batch()
    model = EMF(_CFG)
    za = model.embed_eval(*a)
    zb = model.embed_eval(*a)
    assert np.allclose(za, zb)


def test_save_load_roundtrip(tmp_path):
    a, b, y = _pair_batch()
    model = EMF(_CFG)
    p1 = model.predict_proba(a, b)
    path = str(tmp_path / "emf.npz")
    model.save(path)
    loaded = EMF.load(path)
    assert loaded.config == _CFG
    assert np.allclose(loaded.predict_proba(a, b), p1)


def test_cached_model_rebuilds_corrupt_or_mismatched_cache(tmp_path):
    builds = []

    def build():
        builds.append(1)
        return EMF(_CFG)

    key = cache_key(test="cache")
    path = tmp_path / f"emf_{key}.npz"
    first = cached_model(str(tmp_path), key, _CFG, build)
    assert len(builds) == 1 and path.is_file()
    again = cached_model(str(tmp_path), key, _CFG, build)
    assert len(builds) == 1  # served from the cache
    np.testing.assert_array_equal(again.fc3.p["W"], first.fc3.p["W"])

    # a truncated file (no zip end record) is rebuilt and replaced
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    cached_model(str(tmp_path), key, _CFG, build)
    assert len(builds) == 2
    assert EMF.load(str(path)).config == _CFG

    # a readable file holding another config is rebuilt as well
    other = EMFConfig(d_in=7, conv=(4, 4), fc=(4, 2), dropout=0.0, seed=3)
    EMF(other).save(str(path))
    assert cached_model(str(tmp_path), key, _CFG, build).config == _CFG
    assert len(builds) == 3
    assert not list(tmp_path.glob("*.tmp"))


def test_load_rejects_wrong_weight_shape(tmp_path):
    blob = EMF(_CFG)._blob()
    blob["l0_Ws"] = blob["l0_Ws"][:, :1]
    np.savez(tmp_path / "bad.npz", **blob)
    with pytest.raises(ValueError):
        EMF.load(str(tmp_path / "bad.npz"))


def test_bce_matches_reference():
    logits = np.array([0.0, 2.0, -2.0])
    y = np.array([1.0, 1.0, 0.0])
    loss, dl = bce_with_logits(logits, y)
    p = 1 / (1 + np.exp(-logits))
    ref = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert abs(loss - ref) < 1e-9
    assert np.allclose(dl, (p - y) / 3)


def test_metrics_and_confusion():
    y = np.array([1, 1, 0, 0, 1])
    p = np.array([1, 0, 0, 1, 1])
    c = confusion(y, p)
    assert (c["tp"], c["fp"], c["fn"], c["tn"]) == (2, 1, 1, 1)
    m = metrics(y, p)
    assert m["accuracy"] == 0.6
    assert m["precision"] == 2 / 3
    assert m["recall"] == 2 / 3
    assert m["tnr"] == 0.5


def test_pad_encs_rejects_overflow():
    from repro.encoding.instance import TreeEnc

    e = TreeEnc(np.zeros((5, 3), np.float32), np.full(5, -1, np.int32), np.full(5, -1, np.int32))
    with pytest.raises(ValueError):
        pad_encs([e], m=3)


def test_training_overfits_tiny_synthetic():
    """Random-feature sanity: the net must drive training loss down on
    a tiny fixed dataset (capacity + backprop check)."""
    a, b, y = _pair_batch(B=16, M=4, seed=5)
    data = PairTensors(a, b, y)
    model = EMF(_CFG)
    losses = train_emf(model, data, epochs=60, batch_size=8, seed=1, weight_decay=0.0)
    assert losses[-1] < losses[0] * 0.5


def test_learns_equivalence_on_real_pairs():
    """Integration: train on TPC-H-lite labeled pairs, accuracy well
    above chance on held-out pairs from the same distribution."""
    ds = make_dataset(TPCH_LITE, 300, 300, seed=10)
    data = encode_pairs(ds)
    n = len(data)
    idx = np.arange(n)
    train_idx, test_idx = idx[: int(0.85 * n)], idx[int(0.85 * n) :]
    cfg = EMFConfig(d_in=data.a[0].shape[2], conv=(64, 48), fc=(48, 24),
                    dropout=0.2, seed=0)
    model = EMF(cfg)
    train_emf(model, data.subset(train_idx), epochs=30, batch_size=64, seed=2)
    m = evaluate(model, data.subset(test_idx))
    # Smoke-scale check only (~500 train pairs): clearly above chance.
    # The benchmark-scale setting (Table 3, ~4k pairs) reaches ~0.85+.
    assert m["accuracy"] >= 0.65, m
