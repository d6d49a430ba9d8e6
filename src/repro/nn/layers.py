"""Numpy neural-network layers — the repo's PyTorch substitute.

Functional-style layers: ``forward`` returns ``(output, cache)`` and
``backward(cache, dout)`` returns the input gradient while *accumulating*
parameter gradients into ``self.g``. Accumulation (rather than
assignment) is what lets the tree-convolution stack be shared between
the two sides of a subexpression pair (§5, Figure 6): call forward
twice, backward twice, and parameter gradients sum correctly.

All layers are exercised by numeric gradient-check tests.
"""
from __future__ import annotations

import numpy as np


class Layer:
    """Base: parameter dict ``p``, gradient dict ``g``."""

    def __init__(self) -> None:
        self.p: dict[str, np.ndarray] = {}
        self.g: dict[str, np.ndarray] = {}

    def zero_grads(self) -> None:
        for k, v in self.p.items():
            self.g[k] = np.zeros_like(v)

    def _acc(self, name: str, grad: np.ndarray) -> None:
        if name not in self.g:
            self.g[name] = np.zeros_like(self.p[name])
        self.g[name] += grad


# Child weights start small: equivalence is mostly a property of the
# node-content multiset (reorders must stay near-invariant), so the
# structural pathways should begin as a gentle correction rather than
# dominate the embedding.
CHILD_SCALE = 0.2
BN_MOMENTUM = 0.9
BN_EPS = 1e-5
PRELU_INIT = 0.25


def _init(rng: np.random.Generator, *shape: int) -> np.ndarray:
    fan_in = shape[0]
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float64)


class TreeConv(Layer):
    """Tree convolution over (node, left child, right child) triples.

    For the node rows ``X`` (N, Din) of packed trees, with global child
    rows ``left``/``right`` (N; −1 = absent):

        H[i] = X[i]·Ws + X[left[i]]·Wl + X[right[i]]·Wr + b

    This is the Mou et al. [39] / Neo [37] triangle-convolution shape
    the paper's EMF uses (§3.2, §5). One matmul against ``[Ws|Wl|Wr]``
    computes all three terms; each node then adds its children's rows
    of the ``Wl`` and ``Wr`` output blocks. Row −1, an absent child, is
    the zero row appended to the product.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.p["Ws"] = _init(rng, d_in, d_out)
        self.p["Wl"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["Wr"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["b"] = np.zeros(d_out)

    def _weights(self) -> np.ndarray:
        return np.hstack([self.p["Ws"], self.p["Wl"], self.p["Wr"]])

    def forward(self, X, left, right):
        d = self.p["b"].shape[0]
        Y = np.empty((X.shape[0] + 1, 3 * d))
        np.matmul(X, self._weights(), out=Y[:-1])
        Y[-1] = 0.0
        H = Y[:-1, :d] + Y[left, d : 2 * d] + Y[right, 2 * d :] + self.p["b"]
        return H, (X, left, right)

    def backward(self, cache, dH):
        X, left, right = cache
        d = dH.shape[1]
        # gradient of the product Y; child terms scatter onto child rows
        dY = np.zeros((X.shape[0] + 1, 3 * d))
        dY[:-1, :d] = dH
        np.add.at(dY[:, d : 2 * d], left, dH)
        np.add.at(dY[:, 2 * d :], right, dH)
        dY = dY[:-1]
        dW = X.T @ dY
        self._acc("Ws", dW[:, :d])
        self._acc("Wl", dW[:, d : 2 * d])
        self._acc("Wr", dW[:, 2 * d :])
        self._acc("b", dH.sum(axis=0))
        return dY @ self._weights().T


class BatchNorm(Layer):
    """Per-channel batch normalization over rows."""

    def __init__(self, d: int):
        super().__init__()
        self.p["gamma"] = np.ones(d)
        self.p["beta"] = np.zeros(d)
        self.run_mean = np.zeros(d)
        self.run_var = np.ones(d)

    def forward(self, X, train=True):
        if train:
            mean = X.mean(axis=0)
            var = ((X - mean) ** 2).mean(axis=0)
            self.run_mean = BN_MOMENTUM * self.run_mean + (1 - BN_MOMENTUM) * mean
            self.run_var = BN_MOMENTUM * self.run_var + (1 - BN_MOMENTUM) * var
        else:
            mean, var = self.run_mean, self.run_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        Xh = (X - mean) * inv
        return Xh * self.p["gamma"] + self.p["beta"], (Xh, inv, train)

    def backward(self, cache, dout):
        Xh, inv, train = cache
        self._acc("gamma", (dout * Xh).sum(axis=0))
        self._acc("beta", dout.sum(axis=0))
        dXh = dout * self.p["gamma"]
        if not train:
            return dXh * inv
        return (dXh - dXh.mean(axis=0) - Xh * (dXh * Xh).mean(axis=0)) * inv


class PReLU(Layer):
    """Parametric ReLU with a per-channel slope (the paper's activation)."""

    def __init__(self, d: int):
        super().__init__()
        self.p["a"] = np.full(d, PRELU_INIT)

    def forward(self, X):
        pos = X > 0
        out = np.where(pos, X, self.p["a"] * X)
        return out, (X, pos)

    def backward(self, cache, dout):
        X, pos = cache
        axes = tuple(range(X.ndim - 1))
        self._acc("a", (dout * np.where(pos, 0.0, X)).sum(axis=axes))
        return dout * np.where(pos, 1.0, self.p["a"])


class Dropout(Layer):
    def __init__(self, rate: float = 0.5):
        super().__init__()
        self.rate = rate

    def forward(self, X, train, rng: np.random.Generator):
        if not train or self.rate <= 0:
            return X, None
        keep = (rng.random(X.shape) >= self.rate) / (1.0 - self.rate)
        return X * keep, keep

    def backward(self, cache, dout):
        return dout if cache is None else dout * cache


class Linear(Layer):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.p["W"] = _init(rng, d_in, d_out)
        self.p["b"] = np.zeros(d_out)

    def forward(self, X):
        return X @ self.p["W"] + self.p["b"], X

    def backward(self, cache, dout):
        X = cache
        self._acc("W", X.T @ dout)
        self._acc("b", dout.sum(axis=0))
        return dout @ self.p["W"].T


class MaxPoolNodes(Layer):
    """Dynamic max pooling over each packed tree's rows (§3.2): tree
    ``k`` holds the rows from ``starts[k]`` up to the next start."""

    def forward(self, X, starts):
        out = np.maximum.reduceat(X, starts, axis=0)
        return out, (X, starts, out)

    def backward(self, cache, dout):
        """Each channel's gradient goes to the first row of the tree
        that holds its maximum."""
        X, starts, out = cache
        sizes = np.diff(starts, append=X.shape[0])
        rows = np.arange(X.shape[0])[:, None]
        at_max = X == np.repeat(out, sizes, axis=0)
        arg = np.minimum.reduceat(np.where(at_max, rows, X.shape[0]), starts, axis=0)
        dX = np.zeros_like(X)
        dX[arg, np.arange(X.shape[1])] = dout
        return dX
