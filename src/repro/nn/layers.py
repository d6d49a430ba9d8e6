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

    For BFS node features ``X`` (B, M, Din) with child index arrays
    ``L``/``R`` (B, M; −1 = absent) and node mask (B, M):

        H[b,i] = X[b,i]·Ws + X[b,L[b,i]]·Wl + X[b,R[b,i]]·Wr + b

    This is the Mou et al. [39] / Neo [37] triangle-convolution shape
    the paper's EMF uses (§3.2, §5). :meth:`forward_packed` computes the
    same ``H`` on packed trees in eval mode.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.p["Ws"] = _init(rng, d_in, d_out)
        self.p["Wl"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["Wr"] = _init(rng, d_in, d_out) * CHILD_SCALE
        self.p["b"] = np.zeros(d_out)

    @staticmethod
    def _gather(X: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Child features (zeros where idx == −1) and presence mask."""
        present = idx >= 0
        safe = np.where(present, idx, 0)
        B = np.arange(X.shape[0])[:, None]
        out = X[B, safe] * present[..., None]
        return out, present

    def forward(self, X, L, R, mask):
        XL, pl = self._gather(X, L)
        XR, pr = self._gather(X, R)
        H = X @ self.p["Ws"] + XL @ self.p["Wl"] + XR @ self.p["Wr"] + self.p["b"]
        H *= mask[..., None]
        return H, (X, XL, XR, L, R, pl, pr, mask)

    def forward_packed(self, X, left, right):
        """Eval-mode forward on packed rows (no padding, no cache): one
        matmul against ``[Ws|Wl|Wr]``, then each node adds its
        children's rows of the ``Wl`` and ``Wr`` output blocks. Row −1,
        an absent child, is the zero row appended to the product."""
        d = self.p["b"].shape[0]
        Y = np.empty((X.shape[0] + 1, 3 * d))
        np.matmul(X, np.hstack([self.p["Ws"], self.p["Wl"], self.p["Wr"]]), out=Y[:-1])
        Y[-1] = 0.0
        return Y[:-1, :d] + Y[left, d : 2 * d] + Y[right, 2 * d :] + self.p["b"]

    def backward(self, cache, dH):
        X, XL, XR, L, R, pl, pr, mask = cache
        dH = dH * mask[..., None]
        flat = lambda A: A.reshape(-1, A.shape[-1])
        self._acc("Ws", flat(X).T @ flat(dH))
        self._acc("Wl", flat(XL).T @ flat(dH))
        self._acc("Wr", flat(XR).T @ flat(dH))
        self._acc("b", flat(dH).sum(axis=0))
        dX = dH @ self.p["Ws"].T
        # scatter-add child-path gradients back to child node positions
        B_idx = np.arange(X.shape[0])[:, None]
        dXL = (dH @ self.p["Wl"].T) * pl[..., None]
        dXR = (dH @ self.p["Wr"].T) * pr[..., None]
        safeL = np.where(pl, L, 0)
        safeR = np.where(pr, R, 0)
        np.add.at(dX, (np.broadcast_to(B_idx, L.shape), safeL), dXL)
        np.add.at(dX, (np.broadcast_to(B_idx, R.shape), safeR), dXR)
        return dX


class BatchNorm(Layer):
    """Per-channel batch normalization with node-mask support."""

    def __init__(self, d: int):
        super().__init__()
        self.p["gamma"] = np.ones(d)
        self.p["beta"] = np.zeros(d)
        self.run_mean = np.zeros(d)
        self.run_var = np.ones(d)

    def forward(self, X, mask=None, train=True):
        orig_shape = X.shape
        F = X.reshape(-1, orig_shape[-1])
        w = (
            np.ones(F.shape[0])
            if mask is None
            else mask.reshape(-1).astype(np.float64)
        )
        n = max(w.sum(), 1.0)
        if train:
            mean = (F * w[:, None]).sum(axis=0) / n
            var = (((F - mean) ** 2) * w[:, None]).sum(axis=0) / n
            self.run_mean = BN_MOMENTUM * self.run_mean + (1 - BN_MOMENTUM) * mean
            self.run_var = BN_MOMENTUM * self.run_var + (1 - BN_MOMENTUM) * var
        else:
            mean, var = self.run_mean, self.run_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        Xh = (F - mean) * inv
        out = (Xh * self.p["gamma"] + self.p["beta"]).reshape(orig_shape)
        if mask is not None:
            out = out * mask[..., None]
        return out, (Xh, inv, w, n, orig_shape, train, mask)

    def backward(self, cache, dout):
        Xh, inv, w, n, orig_shape, train, mask = cache
        dF = dout.reshape(-1, orig_shape[-1])
        if mask is not None:
            dF = dF * w[:, None]
        self._acc("gamma", (dF * Xh).sum(axis=0))
        self._acc("beta", dF.sum(axis=0))
        dXh = dF * self.p["gamma"]
        if train:
            term = (
                dXh
                - (dXh * w[:, None]).sum(axis=0) / n
                - Xh * ((dXh * Xh * w[:, None]).sum(axis=0) / n)
            )
            dX = term * inv * (w[:, None] if mask is not None else 1.0)
        else:
            dX = dXh * inv
        return dX.reshape(orig_shape)


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
    """Dynamic max pooling over the node axis (§3.2) with mask."""

    def forward(self, X, mask):
        neg = np.where(mask[..., None] > 0, X, -np.inf)
        arg = neg.argmax(axis=1)  # (B, D)
        B, M, D = X.shape
        out = np.take_along_axis(neg, arg[:, None, :], axis=1)[:, 0, :]
        # all-masked rows (cannot happen for nonempty plans) → zero
        out = np.where(np.isfinite(out), out, 0.0)
        return out, (arg, X.shape)

    def backward(self, cache, dout):
        arg, shape = cache
        dX = np.zeros(shape)
        B, M, D = shape
        b_idx = np.repeat(np.arange(B), D)
        d_idx = np.tile(np.arange(D), B)
        np.add.at(dX, (b_idx, arg.reshape(-1), d_idx), dout.reshape(-1))
        return dX
