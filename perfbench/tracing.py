"""In-memory span tracer for the GEqO benchmark's traced run.

Nothing under ``src/`` is changed: :func:`layer_patches` names the
functions each layer exposes at the import sites the cascade calls, and
:meth:`Tracer.call` swaps in timing wrappers for the length of one
``GEqO_SET`` call, then restores the originals. Untraced calls therefore
run the unmodified program.

A span is ``(name, start, end, parent, call_id)``; spans of one call
share ``call_id``. A span's self time is its duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap). Spans stay in memory and are written out by
:meth:`Tracer.dump` when the benchmark ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.call_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (embeddings, tau, pairs returned by HNSW) per VMF SF-group
        self.vmf_groups: list[tuple[np.ndarray, float, set]] = []
        self._last_embedding: np.ndarray | None = None

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.call_id)

    def wrap(self, fn, name: str, *, before=None, after=None, errors=()):
        """``fn`` inside a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the span, and each
        exception type in ``errors`` is counted as ``<name>.<Type>``
        before it propagates."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except errors as e:
                self.counts[f"{name}.{type(e).__name__}"] += 1
                raise
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def call(self, patches):
        """One traced ``GEqO_SET`` call: install ``patches`` (see
        :func:`layer_patches`), open the root span, restore on exit."""
        self.call_id += 1
        saved = []
        try:
            for owner, attr, wrapper in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            with self.span("call"):
                yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def summary(self, call_id: int) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child = defaultdict(float)
        mine = [
            (i, s) for i, s in enumerate(self.spans)
            if s is not None and s[4] == call_id
        ]
        for _, (_, t0, t1, parent, _) in mine:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, t0, t1, _, _) in mine:
            row = out[name]
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return dict(out)

    def hnsw_recall(self) -> tuple[int, int]:
        """(HNSW within-τ pairs that are exact, exact within-τ pairs) over
        the recorded VMF groups, exact pairs from a numpy sweep over the
        same embeddings with the same squared-distance test."""
        found = exact = 0
        for Z, tau, pairs in self.vmf_groups:
            r2 = tau * tau
            truth = set()
            for i in range(len(Z)):
                d = ((Z - Z[i]) ** 2).sum(axis=1)
                truth.update((i, int(j)) for j in np.nonzero(d <= r2)[0] if j > i)
            found += len(truth & pairs)
            exact += len(truth)
        return found, exact

    def reset_call_state(self) -> None:
        self.counts.clear()
        self.vmf_groups.clear()
        self._last_embedding = None

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                if s is None:
                    continue
                name, t0, t1, parent, call_id = s
                f.write(json.dumps(
                    {"name": name, "start": t0, "end": t1,
                     "parent": parent, "call": call_id}) + "\n")


def _owner(path: str):
    """``"pkg.mod"`` → module; ``"pkg.mod:Class"`` → class."""
    mod, _, cls = path.partition(":")
    m = importlib.import_module(mod)
    return getattr(m, cls) if cls else m


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every layer boundary traced.

    Layers are named after the modules that own them; the owner is the
    module or class the cascade looks the name up in at call time."""
    def embed_rows(args, kwargs):
        tracer.counts["vmf.embed_rows"] += args[1].shape[0]  # (self, X, ...)

    def forget_embedding(args, kwargs):
        tracer._last_embedding = None

    def keep_embedding(args, kwargs, Z):
        tracer._last_embedding = Z

    def keep_group(args, kwargs, pairs):
        if tracer._last_embedding is not None:
            tau = kwargs.get("tau", 1.0)
            tracer.vmf_groups.append((tracer._last_embedding, tau, set(pairs)))

    def emf_pairs(args, kwargs):
        tracer.counts["emf.pairs"] += len(args[1])  # (model, pairs)

    table = [
        # filters.vmf with encoding.agnostic, nn.model and ann.hnsw
        ("repro.filters.vmf", "group_candidate_pairs", "vmf.group",
         dict(before=forget_embedding, after=keep_group, errors=(ValueError,))),
        ("repro.filters.vmf", "embed_group", "vmf.embed_group",
         dict(after=keep_embedding)),
        ("repro.nn.model:EMF", "embed_eval", "nn.embed_eval",
         dict(before=embed_rows)),
        ("repro.ann.hnsw:HNSW", "build", "hnsw.build", {}),
        ("repro.ann.hnsw:HNSW", "radius_search", "hnsw.radius_search", {}),
        # filters.emf_filter
        ("repro.core.pipeline", "emf_scores", "emf.scores",
         dict(before=emf_pairs)),
        ("repro.filters.emf_filter", "encode_pair_agnostic", "emf.encode_pair",
         dict(errors=(ValueError,))),
        ("repro.nn.model:EMF", "predict_proba", "nn.predict_proba", {}),
        # verifier.av with verifier.canonical and solver.fm
        ("repro.verifier.av:Verifier", "equivalent", "av.equivalent",
         dict(errors=(RuntimeError,))),  # SolverError is a RuntimeError
        ("repro.verifier.av", "flatten", "av.flatten", {}),
        ("repro.verifier.av", "satisfiable", "fm.satisfiable", {}),
        ("repro.verifier.av", "implies", "fm.implies", {}),
    ]
    out = []
    for owner_path, attr, name, hooks in table:
        owner = _owner(owner_path)
        out.append((owner, attr, tracer.wrap(owner.__dict__[attr], name, **hooks)))
    return out
