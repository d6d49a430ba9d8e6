"""Hierarchical Navigable Small World index [35] — the FAISS substitute.

Pure numpy/heapq implementation of the standard HNSW algorithm: each
point gets a geometric random level; upper layers are sparse "express"
graphs descended greedily, and the base layer is beam-searched with an
``ef`` candidate list, so a radius query returns at most ``ef`` hits.
The VMF (§2.2) uses an exact radius join instead
(:func:`repro.filters.vmf.radius_join`), which is faster at SF-group
sizes and cannot miss a pair; this index is the approximate alternative
for groups too large to join exactly.
"""
from __future__ import annotations

import heapq
import math

import numpy as np


class HNSW:
    def __init__(
        self,
        dim: int,
        *,
        m: int = 8,
        ef_construction: int = 64,
        seed: int = 0,
    ):
        self.dim = dim
        self.m = m
        self.m0 = 2 * m  # base-layer degree bound
        self.ef_c = ef_construction
        self.ml = 1.0 / math.log(m)
        self.rng = np.random.default_rng(seed)
        self.vectors: list[np.ndarray] = []
        self.levels: list[int] = []
        # neighbors[node][level] -> list[int]
        self.neighbors: list[list[list[int]]] = []
        self.entry: int | None = None
        self.max_level = -1

    # -- internals ----------------------------------------------------
    def _dist(self, q: np.ndarray, idx: int) -> float:
        d = q - self.vectors[idx]
        return float(np.dot(d, d))  # squared Euclidean (monotone)

    def _select_neighbors(self, center: np.ndarray, cand: list[int], bound: int):
        """Malkov's heuristic neighbor selection: keep a candidate only
        if it is closer to the center than to every already-kept
        neighbor. Plain closest-M pruning disconnects well-separated
        clusters; this keeps the long-range bridge edges."""
        ordered = sorted(cand, key=lambda i: self._dist(center, i))
        kept: list[int] = []
        for c in ordered:
            if len(kept) >= bound:
                break
            dc = self._dist(center, c)
            if all(self._dist(self.vectors[c], o) > dc for o in kept):
                kept.append(c)
        # fill remaining slots with the closest discarded candidates
        if len(kept) < bound:
            for c in ordered:
                if len(kept) >= bound:
                    break
                if c not in kept:
                    kept.append(c)
        return kept

    def _search_layer(self, q: np.ndarray, entry: int, ef: int, level: int):
        """Beam search on one layer; returns [(dist, idx)] sorted asc."""
        visited = {entry}
        d0 = self._dist(q, entry)
        candidates = [(d0, entry)]  # min-heap
        results = [(-d0, entry)]  # max-heap of best ef
        while candidates:
            d, c = heapq.heappop(candidates)
            if d > -results[0][0]:
                break
            for nb in self.neighbors[c][level]:
                if nb in visited:
                    continue
                visited.add(nb)
                dn = self._dist(q, nb)
                if dn < -results[0][0] or len(results) < ef:
                    heapq.heappush(candidates, (dn, nb))
                    heapq.heappush(results, (-dn, nb))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-d, i) for d, i in results)

    # -- construction --------------------------------------------------
    def add(self, vec: np.ndarray) -> int:
        vec = np.asarray(vec, dtype=np.float64)
        idx = len(self.vectors)
        level = int(-math.log(max(self.rng.random(), 1e-12)) * self.ml)
        self.vectors.append(vec)
        self.levels.append(level)
        self.neighbors.append([[] for _ in range(level + 1)])
        if self.entry is None:
            self.entry = idx
            self.max_level = level
            return idx
        ep = self.entry
        # greedy descend through levels above the new node's level
        for lv in range(self.max_level, level, -1):
            ep = self._search_layer(vec, ep, 1, lv)[0][1]
        # insert with beam search on each level ≤ min(level, max_level)
        for lv in range(min(level, self.max_level), -1, -1):
            cands = self._search_layer(vec, ep, self.ef_c, lv)
            bound = self.m0 if lv == 0 else self.m
            chosen = self._select_neighbors(vec, [i for _, i in cands], bound)
            self.neighbors[idx][lv] = chosen
            for nb in chosen:
                lst = self.neighbors[nb][lv]
                lst.append(idx)
                if len(lst) > bound:
                    self.neighbors[nb][lv] = self._select_neighbors(
                        self.vectors[nb], lst, bound
                    )
            ep = cands[0][1]
        if level > self.max_level:
            self.max_level = level
            self.entry = idx
        return idx

    def build(self, X: np.ndarray) -> "HNSW":
        for row in np.asarray(X, dtype=np.float64):
            self.add(row)
        return self

    # -- queries -------------------------------------------------------
    def search(self, q: np.ndarray, k: int, *, ef: int | None = None):
        """k nearest (dist, idx), squared-Euclidean ascending."""
        if self.entry is None:
            return []
        q = np.asarray(q, dtype=np.float64)
        ep = self.entry
        for lv in range(self.max_level, 0, -1):
            ep = self._search_layer(q, ep, 1, lv)[0][1]
        ef = max(ef or self.ef_c, k)
        return self._search_layer(q, ep, ef, 0)[:k]

    def radius_search(self, q: np.ndarray, radius: float, *, ef: int | None = None):
        """Indices within Euclidean distance ``radius`` (beam-limited)."""
        r2 = radius * radius
        hits = self.search(q, k=ef or self.ef_c, ef=ef)
        return [i for d, i in hits if d <= r2]


def brute_force_knn(X: np.ndarray, q: np.ndarray, k: int):
    """Exact reference for recall tests."""
    d = ((X - q) ** 2).sum(axis=1)
    idx = np.argsort(d)[:k]
    return [(float(d[i]), int(i)) for i in idx]
