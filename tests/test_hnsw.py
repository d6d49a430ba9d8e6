"""HNSW index tests: recall vs brute force, radius semantics, scaling."""
import numpy as np

from repro.ann.hnsw import HNSW, brute_force_knn


def _data(n=500, d=16, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


def test_empty_index():
    idx = HNSW(4)
    assert idx.search(np.zeros(4), 3) == []
    assert idx.radius_search(np.zeros(4), 1.0) == []


def test_single_point():
    idx = HNSW(2)
    idx.add(np.array([1.0, 1.0]))
    res = idx.search(np.array([1.0, 1.0]), 1)
    assert res[0][1] == 0 and res[0][0] == 0.0


def test_exact_match_found():
    X = _data(200, 8)
    idx = HNSW(8, seed=1).build(X)
    for q in (0, 57, 199):
        res = idx.search(X[q], 1)
        assert res[0][1] == q


def test_recall_at_10_vs_brute_force():
    X = _data(800, 16)
    idx = HNSW(16, m=12, ef_construction=96, seed=2).build(X)
    g = np.random.default_rng(3)
    recalls = []
    for _ in range(30):
        q = g.standard_normal(16)
        approx = {i for _, i in idx.search(q, 10, ef=64)}
        exact = {i for _, i in brute_force_knn(X, q, 10)}
        recalls.append(len(approx & exact) / 10)
    assert np.mean(recalls) >= 0.85, np.mean(recalls)


def test_radius_search_semantics():
    # three tight clusters; radius query must return the right cluster
    g = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([c + 0.1 * g.standard_normal((20, 2)) for c in centers])
    idx = HNSW(2, seed=5).build(X)
    hits = idx.radius_search(centers[1], 1.0, ef=80)
    assert set(hits) == set(range(20, 40))


def test_radius_zero_returns_exact_duplicates():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    idx = HNSW(2, seed=6).build(X)
    hits = idx.radius_search(np.array([1.0, 2.0]), 1e-9, ef=10)
    assert set(hits) == {0, 1}


def test_results_sorted_by_distance():
    X = _data(100, 4, seed=7)
    idx = HNSW(4, seed=7).build(X)
    res = idx.search(X[0], 10)
    dists = [d for d, _ in res]
    assert dists == sorted(dists)


def test_deterministic_given_seed():
    X = _data(100, 4, seed=8)
    a = HNSW(4, seed=9).build(X).search(X[3], 5)
    b = HNSW(4, seed=9).build(X).search(X[3], 5)
    assert a == b


def test_levels_geometric():
    X = _data(2000, 3, seed=10)
    idx = HNSW(3, m=8, seed=11).build(X)
    levels = np.array(idx.levels)
    assert (levels == 0).mean() > 0.7  # most points at base layer
    assert levels.max() >= 1  # some hierarchy exists
