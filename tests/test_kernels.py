"""The numpy kernels against independent oracles: a plain-Python sweep, a
breadth-first search, a dense inverse and brute-force counting."""
from collections import deque

import numpy as np
import pytest

from trustsat import _kernels
from trustsat import compute_weights
from trustsat.satisfaction import reachability_mask
from helpers import random_graph, random_state


def _instance(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_range=(30, 120), lam_range=(2, 10), trust=(0.05, 0.95))
    state = random_state(rng, g.n_nodes, k=(0.05, 0.3))
    w = compute_weights(g, state)
    rater = state.rater_mask(g.n_nodes)
    mask = reachability_mask(g, state.raters)
    update = np.flatnonzero(mask & ~rater).astype(np.int64)
    s0 = state.rating_vector(g.n_nodes)
    return g, w, update, s0


def _python_sweeps(indptr, indices, weights, update, scores, tol, max_iters):
    """Synchronous sweeps as a row-by-row loop over the CSR arrays."""
    it = 0
    resid = 0.0
    while it < max_iters:
        it += 1
        new = []
        for i in update:
            acc = 0.0
            for e in range(indptr[i], indptr[i + 1]):
                acc += weights[e] * scores[indices[e]]
            new.append(acc)
        resid = max(abs(v - scores[i]) for v, i in zip(new, update))
        for v, i in zip(new, update):
            scores[i] = v
        if resid <= tol:
            return it, resid, True
    return it, resid, False


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("max_iters", [3, 5000])
def test_propagate_matches_python_loop_bitwise(seed, max_iters):
    g, w, update, s0 = _instance(seed)
    s_np = s0.copy()
    s_py = s0.copy()
    args = (g.out_indptr, g.out_indices, w, update)
    it, resid, converged, monotone_ok = _kernels.propagate_scores(*args, s_np, 1e-10, max_iters, 1e-12)
    ref = _python_sweeps(*args, s_py, 1e-10, max_iters)
    assert (it, resid, converged) == ref
    assert monotone_ok  # zero start below the fixed point rises monotonically
    assert np.array_equal(s_np, s_py)


def test_propagate_empty_update_returns_early():
    g, w, _, s0 = _instance(6)
    s = s0.copy()
    out = _kernels.propagate_scores(
        g.out_indptr, g.out_indices, w, np.empty(0, np.int64), s, 1e-10, 100, 0.0
    )
    assert out == (0, 0.0, True, True)
    assert np.array_equal(s, s0)


def _bfs_reachable(g, sources):
    seen = [False] * g.n_nodes
    queue = deque()
    for v in sources:
        if not seen[v]:
            seen[v] = True
            queue.append(v)
    while queue:
        v = queue.popleft()
        for u in g.in_indices[g.in_indptr[v]:g.in_indptr[v + 1]]:
            if not seen[u]:
                seen[u] = True
                queue.append(int(u))
    return seen


@pytest.mark.parametrize("seed", range(4, 10))
def test_reachable_matches_bfs(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_range=(1, 120), lam_range=(0.3, 4))
    for size in (0, 1, 3):
        sources = rng.choice(g.n_nodes, size=min(size, g.n_nodes)).astype(np.int64)  # may repeat
        mask = _kernels.reachable_mask(g.in_indptr, g.in_indices, sources, g.n_nodes)
        assert mask.dtype == bool
        assert mask.tolist() == _bfs_reachable(g, sources.tolist())


@pytest.mark.parametrize("seed", [11, 12])
def test_influence_matches_dense_inverse(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=40, lam=4.0, trust=(0.05, 0.95))
    state = random_state(rng, g.n_nodes, k=(0.1, 0.2))
    w = compute_weights(g, state)
    free = state.non_raters(g.n_nodes)
    delta = _kernels.influence_columns(g.out_indptr, g.out_indices, w, free, 1e-13, 10000)
    dense = np.zeros((g.n_nodes, g.n_nodes))
    dense[g.out_rows(), g.out_indices] = w
    m = np.linalg.inv(np.eye(free.size) - dense[np.ix_(free, free)])
    expect = m.T / np.diag(m)[:, None]  # expect[c, j] = M[j, c] / M[c, c]
    assert np.max(np.abs(delta - expect)) <= 1e-9


def _brute_force_scan(delta, s_free, b_free, rating):
    cur = int(np.count_nonzero(s_free > b_free))
    counts = []
    for c in range(s_free.size):
        vals = s_free + (rating - s_free[c]) * delta[c]
        vals[c] = rating
        counts.append(int(np.count_nonzero(vals > b_free)))
    best = int(np.argmax(counts))
    return best, counts[best] - cur


def test_injection_scan_chunking_and_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n_free = int(rng.integers(3, 400))
        delta = rng.uniform(0, 1, (n_free, n_free))
        np.fill_diagonal(delta, 1.0)
        s_free = rng.uniform(0, 1, n_free)
        b_free = rng.uniform(0, 1, n_free)
        rating = float(rng.uniform(0.5, 1.0))
        chunked = _kernels.injection_scan(delta, s_free, b_free, rating, chunk=7)
        whole = _kernels.injection_scan(delta, s_free, b_free, rating, chunk=n_free)
        assert chunked == whole == _brute_force_scan(delta, s_free, b_free, rating)
