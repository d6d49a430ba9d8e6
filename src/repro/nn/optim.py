"""Adam optimizer with decoupled weight decay (§7: Adam, lr=1e-3, wd=5e-4)."""
from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer


LR = 1e-3
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    def __init__(self, layers: list[Layer], weight_decay: float = 5e-4):
        self.layers = layers
        self.wd = weight_decay
        self.t = 0
        self.m: dict[tuple[int, str], np.ndarray] = {}
        self.v: dict[tuple[int, str], np.ndarray] = {}

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def step(self) -> None:
        self.t += 1
        for li, layer in enumerate(self.layers):
            for name, param in layer.p.items():
                grad = layer.g.get(name)
                if grad is None:
                    continue
                if self.wd and name not in ("b", "beta", "a"):
                    grad = grad + self.wd * param
                key = (li, name)
                m = self.m.setdefault(key, np.zeros_like(param))
                v = self.v.setdefault(key, np.zeros_like(param))
                m[:] = BETA1 * m + (1 - BETA1) * grad
                v[:] = BETA2 * v + (1 - BETA2) * grad**2
                mh = m / (1 - BETA1**self.t)
                vh = v / (1 - BETA2**self.t)
                param -= LR * mh / (np.sqrt(vh) + EPS)
