"""Random forest (CART/gini) on flattened pair encodings — Table 3
baseline. Bootstrap-bagged depth-limited trees with √d feature
subsampling; no incremental training (the paper's stated reason for
rejecting RF as the EMF, §5)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_LEAF = 3  # fewest training rows a leaf may hold


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None
    proba: float = 0.5  # leaf positive probability


def _gini_split(x: np.ndarray, y: np.ndarray):
    """Best (threshold, impurity) for one feature, or None."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(ys)
    total_pos = ys.sum()
    left_pos = np.cumsum(ys)[:-1]
    left_n = np.arange(1, n)
    right_pos = total_pos - left_pos
    right_n = n - left_n
    valid = xs[1:] != xs[:-1]  # only split between distinct values
    if not valid.any():
        return None
    pl = left_pos / left_n
    pr = right_pos / right_n
    gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
    gini = np.where(valid, gini, np.inf)
    k = int(np.argmin(gini))
    return (xs[k] + xs[k + 1]) / 2.0, float(gini[k])


class _Tree:
    def __init__(self, max_depth: int, n_feat: int, rng: np.random.Generator):
        self.max_depth = max_depth
        self.n_feat = n_feat
        self.rng = rng
        self.root: _Node | None = None

    def fit(self, X, y):
        self.root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth) -> _Node:
        node = _Node(proba=float(y.mean()) if len(y) else 0.5)
        if (
            depth >= self.max_depth
            or len(y) < 2 * MIN_LEAF
            or y.min() == y.max()
        ):
            return node
        feats = self.rng.choice(X.shape[1], size=self.n_feat, replace=False)
        best = None
        for f in feats:
            res = _gini_split(X[:, f], y)
            if res is None:
                continue
            thr, score = res
            if best is None or score < best[2]:
                best = (int(f), thr, score)
        if best is None:
            return node
        f, thr, _ = best
        mask = X[:, f] <= thr
        if mask.sum() < MIN_LEAF or (~mask).sum() < MIN_LEAF:
            return node
        node.feature, node.threshold = f, thr
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict_proba(self, X) -> np.ndarray:
        out = np.empty(len(X))
        for i, row in enumerate(X):
            n = self.root
            while n.feature >= 0:
                n = n.left if row[n.feature] <= n.threshold else n.right
            out[i] = n.proba
        return out


class RandomForest:
    def __init__(self, *, n_trees: int = 20, max_depth: int = 10, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[_Tree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        n_feat = max(1, int(np.sqrt(d)))
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, n)  # bootstrap
            t = _Tree(self.max_depth, n_feat,
                      np.random.default_rng(rng.integers(0, 2**31)))
            self.trees.append(t.fit(X[idx], y[idx]))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.mean([t.predict_proba(X) for t in self.trees], axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X) >= 0.5
