"""The EMF deep model (§5, Figure 6).

Two shared tree-convolution layers (BatchNorm + PReLU after each)
summarize each subexpression's db-agnostic plan into an ``h``-dim
vector via dynamic max pooling; the two summaries are concatenated and
passed through three fully connected layers (PReLU + dropout between)
to a single equivalence logit.

Scaled down from the paper's (512, 128) conv / (128, 64) linear sizes
to keep pure-numpy training fast; shape and layer count match.
The conv stack doubles as the VMF's embedding function (§2.2):
:meth:`EMF.embed_eval` is what the vector-matching filter indexes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import (
    BatchNorm,
    Dropout,
    Linear,
    MaxPoolNodes,
    PReLU,
    TreeConv,
)


@dataclass(frozen=True)
class EMFConfig:
    d_in: int
    conv: tuple[int, int] = (256, 128)
    fc: tuple[int, int] = (128, 64)
    dropout: float = 0.5
    seed: int = 0

    @property
    def h(self) -> int:
        return self.conv[-1]


class EMF:
    def __init__(self, config: EMFConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c1, c2 = config.conv
        f1, f2 = config.fc
        self.conv1 = TreeConv(config.d_in, c1, rng)
        self.bn1 = BatchNorm(c1)
        self.act1 = PReLU(c1)
        self.conv2 = TreeConv(c1, c2, rng)
        self.bn2 = BatchNorm(c2)
        self.act2 = PReLU(c2)
        self.pool = MaxPoolNodes()
        # FC head consumes [za, zb, |za−zb|, za⊙zb, |ra−rb|]: the two
        # pooled conv summaries, symmetric comparison features, and a
        # parameter-free "raw bag-of-nodes" skip difference (sum of
        # input NVs over valid nodes). The paper concatenates the two
        # summaries only; at our scaled-down training size the explicit
        # comparison features are what lets the net generalize instead
        # of memorize (see DESIGN.md "Substitutions").
        self.fc1 = Linear(4 * c2 + config.d_in, f1, rng)
        self.actf1 = PReLU(f1)
        self.drop1 = Dropout(config.dropout)
        self.fc2 = Linear(f1, f2, rng)
        self.actf2 = PReLU(f2)
        self.drop2 = Dropout(config.dropout)
        self.fc3 = Linear(f2, 1, rng)
        self._rng = np.random.default_rng(config.seed + 1)

    @property
    def layers(self):
        return [
            self.conv1, self.bn1, self.act1, self.conv2, self.bn2, self.act2,
            self.pool, self.fc1, self.actf1, self.drop1, self.fc2, self.actf2,
            self.drop2, self.fc3,
        ]

    # -- tree embedding ----------------------------------------------
    def embed(self, X, L, R, mask, train: bool):
        h1, c_conv1 = self.conv1.forward(X, L, R, mask)
        h1, c_bn1 = self.bn1.forward(h1, mask, train)
        h1, c_act1 = self.act1.forward(h1)
        h2, c_conv2 = self.conv2.forward(h1, L, R, mask)
        h2, c_bn2 = self.bn2.forward(h2, mask, train)
        h2, c_act2 = self.act2.forward(h2)
        z, c_pool = self.pool.forward(h2, mask)
        return z, (c_conv1, c_bn1, c_act1, c_conv2, c_bn2, c_act2, c_pool)

    def embed_backward(self, cache, dz):
        c_conv1, c_bn1, c_act1, c_conv2, c_bn2, c_act2, c_pool = cache
        d = self.pool.backward(c_pool, dz)
        d = self.act2.backward(c_act2, d)
        d = self.bn2.backward(c_bn2, d)
        d = self.conv2.backward(c_conv2, d)
        d = self.act1.backward(c_act1, d)
        d = self.bn1.backward(c_bn1, d)
        self.conv1.backward(c_conv1, d)

    def embed_eval(self, X, L, R, mask) -> np.ndarray:
        """Eval-mode embedding (B, h) — used by the VMF (§2.2)."""
        z, _ = self.embed(X, L, R, mask, train=False)
        return z

    # -- pair classification -----------------------------------------
    def forward_pair(self, a, b, train: bool):
        """a/b are (X, L, R, mask) tuples; returns logits (B,) + cache."""
        za, ca = self.embed(*a, train)
        zb, cb = self.embed(*b, train)
        ra = (a[0] * a[3][..., None]).sum(axis=1)
        rb = (b[0] * b[3][..., None]).sum(axis=1)
        diff = za - zb
        sign = np.sign(diff)
        z = np.concatenate([za, zb, np.abs(diff), za * zb, np.abs(ra - rb)], axis=1)
        h, c1 = self.fc1.forward(z)
        h, ca1 = self.actf1.forward(h)
        h, cd1 = self.drop1.forward(h, train, self._rng)
        h, c2 = self.fc2.forward(h)
        h, ca2 = self.actf2.forward(h)
        h, cd2 = self.drop2.forward(h, train, self._rng)
        logits, c3 = self.fc3.forward(h)
        return logits[:, 0], (
            ca, cb, c1, ca1, cd1, c2, ca2, cd2, c3, za, zb, sign,
        )

    def backward_pair(self, cache, dlogits):
        ca, cb, c1, ca1, cd1, c2, ca2, cd2, c3, za, zb, sign = cache
        d = self.fc3.backward(c3, dlogits[:, None])
        d = self.drop2.backward(cd2, d)
        d = self.actf2.backward(ca2, d)
        d = self.fc2.backward(c2, d)
        d = self.drop1.backward(cd1, d)
        d = self.actf1.backward(ca1, d)
        d = self.fc1.backward(c1, d)
        h = za.shape[1]
        # The raw-skip slice (beyond 4h) has no upstream parameters, so
        # its gradient is dropped here.
        d1, d2, d3, d4 = (
            d[:, :h], d[:, h : 2 * h], d[:, 2 * h : 3 * h], d[:, 3 * h : 4 * h]
        )
        dza = d1 + d3 * sign + d4 * zb
        dzb = d2 - d3 * sign + d4 * za
        self.embed_backward(ca, dza)
        self.embed_backward(cb, dzb)

    def predict_proba(self, a, b) -> np.ndarray:
        logits, _ = self.forward_pair(a, b, train=False)
        return 1.0 / (1.0 + np.exp(-logits))

    # -- persistence --------------------------------------------------
    def _blob(self) -> dict[str, np.ndarray]:
        blob: dict[str, np.ndarray] = {
            "cfg_d_in": np.array(self.config.d_in),
            "cfg_conv": np.array(self.config.conv),
            "cfg_fc": np.array(self.config.fc),
            "cfg_dropout": np.array(self.config.dropout),
            "cfg_seed": np.array(self.config.seed),
            "bn1_mean": self.bn1.run_mean, "bn1_var": self.bn1.run_var,
            "bn2_mean": self.bn2.run_mean, "bn2_var": self.bn2.run_var,
        }
        for i, layer in enumerate(self.layers):
            for name, param in layer.p.items():
                blob[f"l{i}_{name}"] = param
        return blob

    def save(self, path: str) -> None:
        np.savez(path, **self._blob())

    def to_bytes(self) -> bytes:
        """Serialized weights — broadcast to Spark workers."""
        import io

        buf = io.BytesIO()
        np.savez(buf, **self._blob())
        return buf.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "EMF":
        import io

        return EMF._from_blob(np.load(io.BytesIO(data)))

    @staticmethod
    def load(path: str) -> "EMF":
        with np.load(path) as blob:
            return EMF._from_blob(blob)

    @staticmethod
    def _from_blob(blob) -> "EMF":
        cfg = EMFConfig(
            d_in=int(blob["cfg_d_in"]),
            conv=tuple(int(x) for x in blob["cfg_conv"]),
            fc=tuple(int(x) for x in blob["cfg_fc"]),
            dropout=float(blob["cfg_dropout"]),
            seed=int(blob["cfg_seed"]),
        )
        model = EMF(cfg)

        def take(key: str, like: np.ndarray) -> np.ndarray:
            arr = blob[key]
            if arr.shape != like.shape:
                raise ValueError(f"{key}: shape {arr.shape}, expected {like.shape}")
            return arr.copy()

        for i, layer in enumerate(model.layers):
            for name in layer.p:
                layer.p[name] = take(f"l{i}_{name}", layer.p[name])
        for bn, key in ((model.bn1, "bn1"), (model.bn2, "bn2")):
            bn.run_mean = take(f"{key}_mean", bn.run_mean)
            bn.run_var = take(f"{key}_var", bn.run_var)
        return model
