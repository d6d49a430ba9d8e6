"""LR / RF baseline classifier tests (Table 3 candidates)."""
import numpy as np

from repro.ml.forest import RandomForest, _gini_split
from repro.ml.logistic import LogisticRegression


def _linear_data(n=400, d=6, seed=0):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, d))
    w = g.standard_normal(d)
    y = (X @ w > 0).astype(float)
    return X, y


def _xor_data(n=600, seed=1):
    g = np.random.default_rng(seed)
    X = g.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
    return X, y


def test_lr_learns_linear():
    X, y = _linear_data()
    m = LogisticRegression(epochs=400).fit(X[:300], y[:300])
    acc = (m.predict(X[300:]) == y[300:].astype(bool)).mean()
    assert acc >= 0.95


def test_lr_fails_xor():
    X, y = _xor_data()
    m = LogisticRegression(epochs=400).fit(X[:450], y[:450])
    acc = (m.predict(X[450:]) == y[450:].astype(bool)).mean()
    assert acc <= 0.65  # linear model cannot do XOR


def test_lr_proba_range():
    X, y = _linear_data(100)
    m = LogisticRegression(epochs=100).fit(X, y)
    p = m.predict_proba(X)
    assert np.all((p >= 0) & (p <= 1))


def test_gini_split_perfect_separator():
    x = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    y = np.array([0.0, 0, 0, 1, 1, 1])
    thr, score = _gini_split(x, y)
    assert 3.0 < thr < 10.0
    assert score == 0.0


def test_gini_split_constant_feature():
    assert _gini_split(np.ones(5), np.array([0.0, 1, 0, 1, 0])) is None


def test_rf_learns_xor():
    X, y = _xor_data()
    m = RandomForest(n_trees=25, max_depth=6, seed=3).fit(X[:450], y[:450])
    acc = (m.predict(X[450:]) == y[450:].astype(bool)).mean()
    assert acc >= 0.9


def test_rf_learns_linear():
    X, y = _linear_data()
    m = RandomForest(n_trees=20, max_depth=8, seed=4).fit(X[:300], y[:300])
    acc = (m.predict(X[300:]) == y[300:].astype(bool)).mean()
    assert acc >= 0.85


def test_rf_proba_averaged():
    X, y = _linear_data(100)
    m = RandomForest(n_trees=5, seed=5).fit(X, y)
    p = m.predict_proba(X)
    assert np.all((p >= 0) & (p <= 1))


def test_rf_deterministic_seeded():
    X, y = _linear_data(150, seed=6)
    a = RandomForest(n_trees=5, seed=7).fit(X, y).predict_proba(X)
    b = RandomForest(n_trees=5, seed=7).fit(X, y).predict_proba(X)
    assert np.array_equal(a, b)
