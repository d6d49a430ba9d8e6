"""Logistic regression on flattened pair encodings — Table 3 baseline.

The paper's LR candidate (§5) consumes the same featurized pairs as the
EMF but as one flat vector, with no structural inductive bias. Plain
full-batch gradient descent with L2 regularization.
"""
from __future__ import annotations

import numpy as np

LR = 0.1
L2 = 1e-4


class LogisticRegression:
    def __init__(self, *, epochs: int = 300, seed: int = 0):
        self.epochs = epochs
        self.seed = seed
        self.w: np.ndarray | None = None
        self.b: float = 0.0
        self._mu: np.ndarray | None = None
        self._sd: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._mu = X.mean(axis=0)
        self._sd = X.std(axis=0) + 1e-8
        Xs = (X - self._mu) / self._sd
        n, d = Xs.shape
        rng = np.random.default_rng(self.seed)
        self.w = rng.standard_normal(d) * 0.01
        self.b = 0.0
        for _ in range(self.epochs):
            z = Xs @ self.w + self.b
            p = 1.0 / (1.0 + np.exp(-z))
            g = (p - y) / n
            self.w -= LR * (Xs.T @ g + L2 * self.w)
            self.b -= LR * g.sum()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=np.float64) - self._mu) / self._sd
        z = np.clip(Xs @ self.w + self.b, -500, 500)
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X) >= 0.5
