"""Numeric gradient checks for every layer — backprop is hand-written,
so this is the safety net."""
import numpy as np
import pytest

from repro.encoding.instance import SENTINEL, Packed, densify
from repro.nn import layers
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    Linear,
    MaxPoolNodes,
    PReLU,
    SparseTreeConv,
    TreeConv,
)

RNG = np.random.default_rng(0)


def num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def _trees(D=3):
    """Two packed trees: rows 0–3 (root 0 with children 1 and 3, node 1
    with child 2) and rows 4–6 (root 4 with children 5 and 6)."""
    X = RNG.standard_normal((7, D))
    starts = np.array([0, 4])
    left = np.array([1, 2, -1, -1, 5, -1, -1])
    right = np.array([3, -1, -1, -1, 6, -1, -1])
    return starts, X, left, right


def test_treeconv_input_grad():
    _, X, left, right = _trees()
    layer = TreeConv(3, 5, RNG)
    dout = RNG.standard_normal((7, 5))

    def loss():
        out, _ = layer.forward(X, left, right)
        return float((out * dout).sum())

    out, cache = layer.forward(X, left, right)
    layer.zero_grads()
    dX = layer.backward(cache, dout)
    assert np.allclose(dX, num_grad(loss, X), atol=1e-5)


@pytest.mark.parametrize("pname", ["Ws", "Wl", "Wr", "b"])
def test_treeconv_param_grads(pname):
    _, X, left, right = _trees()
    layer = TreeConv(3, 5, RNG)
    dout = RNG.standard_normal((7, 5))

    def loss():
        out, _ = layer.forward(X, left, right)
        return float((out * dout).sum())

    out, cache = layer.forward(X, left, right)
    layer.zero_grads()
    layer.backward(cache, dout)
    assert np.allclose(layer.g[pname], num_grad(loss, layer.p[pname]), atol=1e-5)


def test_treeconv_matches_triangle_formula():
    """``H[i] = X[i]·Ws + X[left[i]]·Wl + X[right[i]]·Wr + b``, an
    absent child adding nothing."""
    _, X, left, right = _trees()
    layer = TreeConv(3, 5, RNG)
    out, _ = layer.forward(X, left, right)
    p = layer.p
    for i in range(len(X)):
        want = X[i] @ p["Ws"] + p["b"]
        if left[i] >= 0:
            want = want + X[left[i]] @ p["Wl"]
        if right[i] >= 0:
            want = want + X[right[i]] @ p["Wr"]
        assert np.allclose(out[i], want, atol=1e-12)


def _slotted_rows(N, D, K, g):
    """N random node rows of D columns as K slots, each row 1–K
    non-zeros (sorted columns, then sentinels)."""
    cols = np.full((N, K), SENTINEL)
    vals = np.zeros((N, K))
    for i, n in enumerate(g.integers(1, K + 1, N)):
        cols[i, :n] = np.sort(g.choice(D, n, replace=False))
        vals[i, :n] = g.standard_normal(n)
    return cols, vals


@pytest.mark.parametrize("K", [1, 3, 6])
def test_sparse_treeconv_matches_dense_product(K, monkeypatch):
    """The slot layer's product is ``X @ [Ws|Wl|Wr]`` of the dense rows,
    across gather blocks and for a subset of rows, and its output is the
    dense layer's."""
    monkeypatch.setattr(layers, "_GATHER_BLOCK", 64)  # several blocks
    g = np.random.default_rng(K)
    N, D = 40, 9
    cols, vals = _slotted_rows(N, D, K, g)
    left = np.where(g.random(N) < 0.5, g.integers(0, N, N), -1)
    right = np.where(g.random(N) < 0.5, g.integers(0, N, N), -1)
    X = densify(Packed(np.zeros(1, np.intp), cols, vals, left, right), D)  # one tree
    sparse, dense = SparseTreeConv(D, 5, g), TreeConv(D, 5, g)
    dense.p = {k: v.copy() for k, v in sparse.p.items()}
    W = np.hstack([sparse.p["Ws"], sparse.p["Wl"], sparse.p["Wr"]])
    rows = g.integers(0, N, N // 2)
    assert np.abs(sparse._product((cols, vals), None, W) - X @ W).max() <= 1e-12
    assert np.abs(sparse._product((cols, vals), rows, W) - X[rows] @ W).max() <= 1e-12
    H, _ = sparse.forward((cols, vals), left, right)
    assert np.abs(H - dense.forward(X, left, right)[0]).max() <= 1e-12


@pytest.mark.parametrize("pname", ["Ws", "Wl", "Wr", "b"])
def test_sparse_treeconv_param_grads(pname):
    """Numeric gradient check of the slot layer; it returns no input
    gradient (its input is data)."""
    _, X, left, right = _trees()
    g = np.random.default_rng(1)
    cols, vals = _slotted_rows(len(X), 6, 3, g)
    layer = SparseTreeConv(6, 5, RNG)
    dout = RNG.standard_normal((len(X), 5))

    def loss():
        out, _ = layer.forward((cols, vals), left, right)
        return float((out * dout).sum())

    out, cache = layer.forward((cols, vals), left, right)
    layer.zero_grads()
    assert layer.backward(cache, dout) is None
    assert np.allclose(layer.g[pname], num_grad(loss, layer.p[pname]), atol=1e-5)


def test_batchnorm_grads():
    X = RNG.standard_normal((11, 6))
    layer = BatchNorm(6)
    dout = RNG.standard_normal(X.shape)

    def loss():
        out, _ = layer.forward(X, train=True)
        return float((out * dout).sum())

    # freeze running-stat updates' effect by copying state each call
    out, cache = layer.forward(X, train=True)
    layer.zero_grads()
    dX = layer.backward(cache, dout)
    assert np.allclose(dX, num_grad(loss, X), atol=1e-4)
    assert np.allclose(layer.g["gamma"], num_grad(loss, layer.p["gamma"]), atol=1e-4)
    assert np.allclose(layer.g["beta"], num_grad(loss, layer.p["beta"]), atol=1e-4)


def test_batchnorm_eval_uses_running_stats():
    layer = BatchNorm(2)
    X = RNG.standard_normal((50, 2)) * 3 + 1
    for _ in range(30):
        layer.forward(X, train=True)
    out, _ = layer.forward(X, train=False)
    assert abs(out.mean()) < 0.3
    assert abs(out.std() - 1.0) < 0.3


def test_prelu_grads():
    X = RNG.standard_normal((4, 6))
    layer = PReLU(6)
    dout = RNG.standard_normal(X.shape)

    def loss():
        out, _ = layer.forward(X)
        return float((out * dout).sum())

    out, cache = layer.forward(X)
    layer.zero_grads()
    dX = layer.backward(cache, dout)
    assert np.allclose(dX, num_grad(loss, X), atol=1e-5)
    assert np.allclose(layer.g["a"], num_grad(loss, layer.p["a"]), atol=1e-5)


def test_linear_grads():
    X = RNG.standard_normal((5, 3))
    layer = Linear(3, 4, RNG)
    dout = RNG.standard_normal((5, 4))

    def loss():
        out, _ = layer.forward(X)
        return float((out * dout).sum())

    out, cache = layer.forward(X)
    layer.zero_grads()
    dX = layer.backward(cache, dout)
    assert np.allclose(dX, num_grad(loss, X), atol=1e-5)
    assert np.allclose(layer.g["W"], num_grad(loss, layer.p["W"]), atol=1e-5)


def test_maxpool_grads():
    starts, X, _, _ = _trees()
    layer = MaxPoolNodes()
    dout = RNG.standard_normal((2, 3))

    def loss():
        out, _ = layer.forward(X, starts)
        return float((out * dout).sum())

    out, cache = layer.forward(X, starts)
    dX = layer.backward(cache, dout)
    assert np.allclose(dX, num_grad(loss, X), atol=1e-5)


def test_maxpool_stays_within_each_tree():
    """Each tree pools its own rows only, and its gradient lands on its
    own rows only, on the first row that holds the maximum."""
    starts = np.array([0, 2, 5])
    X = np.array([[1.0, -5.0], [0.0, -3.0],               # tree 0
                  [100.0, 7.0], [100.0, 2.0], [-1.0, 7.0],  # tree 1: ties
                  [-9.0, -8.0]])                           # tree 2: one row
    layer = MaxPoolNodes()
    out, cache = layer.forward(X, starts)
    np.testing.assert_array_equal(out, [[1.0, -3.0], [100.0, 7.0], [-9.0, -8.0]])
    dX = layer.backward(cache, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_array_equal(
        dX, [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [0.0, 0.0], [0.0, 0.0], [5.0, 6.0]]
    )


def test_dropout_train_eval():
    layer = Dropout(0.5)
    X = np.ones((1000, 4))
    g = np.random.default_rng(1)
    out, cache = layer.forward(X, True, g)
    assert 0.8 < out.mean() < 1.2  # inverted scaling preserves expectation
    assert (out == 0).mean() > 0.3
    out_eval, c2 = layer.forward(X, False, g)
    assert np.array_equal(out_eval, X) and c2 is None


def test_grad_accumulation_across_two_calls():
    """Shared-stack property: two forward/backward passes sum grads."""
    X = RNG.standard_normal((5, 3))
    layer = Linear(3, 2, RNG)
    dout = RNG.standard_normal((5, 2))
    out, c1 = layer.forward(X)
    layer.zero_grads()
    layer.backward(c1, dout)
    once = {k: v.copy() for k, v in layer.g.items()}
    layer.backward(c1, dout)
    for k in once:
        assert np.allclose(layer.g[k], 2 * once[k])
