"""Numpy neural-network layers — the repo's PyTorch substitute.

Functional-style layers: ``forward`` returns ``(output, cache)`` and
``backward(cache, dout)`` returns the input gradient (none for the first
tree convolution, whose input is data) while *accumulating* parameter
gradients into ``self.g``. Accumulation (rather than
assignment) is what lets the tree-convolution stack be shared between
the two sides of a subexpression pair (§5, Figure 6): call forward
twice, backward twice, and parameter gradients sum correctly.

All layers are exercised by numeric gradient-check tests.
"""
from __future__ import annotations

import numpy as np

from repro.encoding.instance import SENTINEL


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
    the paper's EMF uses (§3.2, §5). Each term is one product of the
    rows it reads with its weight block: every row with ``Ws``, the
    left children of the rows that have one with ``Wl``, the right
    children with ``Wr``; an absent child adds nothing. This layer
    takes dense rows (the second convolution); :class:`SparseTreeConv`
    takes node slots.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.p["Ws"] = _init(rng, d_in, d_out)
        self.p["Wl"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["Wr"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["b"] = np.zeros(d_out)

    def _product(self, X, rows, W: np.ndarray) -> np.ndarray:
        """``X[rows]·W``; all rows when ``rows`` is None."""
        return (X if rows is None else X[rows]) @ W

    def _weight_grad(self, X, rows, dY: np.ndarray) -> np.ndarray:
        """The gradient of ``W`` given that of ``X[rows]·W``."""
        return (X if rows is None else X[rows]).T @ dY

    def _input_grad(self, X, children, dH: np.ndarray):
        dX = dH @ self.p["Ws"].T
        for name, parent, child in children:
            np.add.at(dX, child, dH[parent] @ self.p[name].T)
        return dX

    def forward(self, X, left, right):
        H = self._product(X, None, self.p["Ws"])
        children = []
        for name, child in (("Wl", left), ("Wr", right)):
            parent = np.flatnonzero(child >= 0)
            H[parent] += self._product(X, child[parent], self.p[name])
            children.append((name, parent, child[parent]))
        H += self.p["b"]
        return H, (X, children)

    def backward(self, cache, dH):
        X, children = cache
        self._acc("Ws", self._weight_grad(X, None, dH))
        for name, parent, child in children:
            self._acc(name, self._weight_grad(X, child, dH[parent]))
        self._acc("b", dH.sum(axis=0))
        return self._input_grad(X, children, dH)


_GATHER_BLOCK = 1 << 16  # float64 elements of one block's gathered weight rows


class SparseTreeConv(TreeConv):
    """The first tree convolution, on node rows given as the slots
    ``(cols, vals)`` of a :class:`~repro.encoding.instance.Packed`.

    A row's product with a weight block is the value-weighted sum of
    its slots' weight rows: a K-step gather-and-sum, in row blocks of
    :data:`_GATHER_BLOCK` gathered elements. The sentinel column of an
    unused slot picks a zero row appended to the block. The rows are
    data, so backward adds each column's rows of the product gradient
    into that column's weight row and computes no input gradient.
    """

    @staticmethod
    def _slots(X, rows):
        cols, vals = X
        return (cols, vals) if rows is None else (cols[rows], vals[rows])

    def _product(self, X, rows, W: np.ndarray) -> np.ndarray:
        cols, vals = self._slots(X, rows)
        W = np.vstack([W, np.zeros((1, W.shape[1]))])  # row SENTINEL = −1
        Y = np.empty((len(cols), W.shape[1]))
        step = max(1, _GATHER_BLOCK // max(cols.shape[1] * W.shape[1], 1))
        for s in range(0, len(cols), step):
            np.einsum("nk,nkd->nd", vals[s : s + step], W[cols[s : s + step]],
                      out=Y[s : s + step])
        return Y

    def _weight_grad(self, X, rows, dY: np.ndarray) -> np.ndarray:
        cols, vals = self._slots(X, rows)
        live = cols != SENTINEL
        col = cols[live]
        order = np.argsort(col, kind="stable")
        col, row, val = col[order], np.nonzero(live)[0][order], vals[live][order]
        dW = np.zeros((self.p["Ws"].shape[0], dY.shape[1]))
        first = np.flatnonzero(np.diff(col, prepend=-1))
        for a, b in zip(first, np.append(first[1:], len(col))):
            dW[col[a]] = val[a:b] @ dY[row[a:b]]
        return dW

    def _input_grad(self, X, children, dH: np.ndarray) -> None:
        return None


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
