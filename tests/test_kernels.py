"""The numpy kernels against independent oracles: a plain-Python sweep, a
breadth-first search, numpy's dense inverse, per-column iterative solves
and brute-force counting."""
import hashlib
from collections import deque

import numpy as np
import pytest

from trustsat import _kernels
from trustsat import SolverConfig, build_graph, compute_weights, delta_init
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
    """Synchronous sweeps as a row-by-row loop over the CSR arrays, each
    score capped at 1; the last value is False once a sweep lowered a
    coordinate by more than 1e-12."""
    it = 0
    resid = 0.0
    monotone = True
    while it < max_iters:
        it += 1
        new = []
        for i in update:
            acc = 0.0
            for e in range(indptr[i], indptr[i + 1]):
                acc += weights[e] * scores[indices[e]]
            new.append(min(acc, 1.0))
        resid = max(abs(v - scores[i]) for v, i in zip(new, update))
        monotone = monotone and all(v >= scores[i] - 1e-12 for v, i in zip(new, update))
        for v, i in zip(new, update):
            scores[i] = v
        if resid <= tol:
            return it, resid, True, monotone
    return it, resid, False, monotone


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("max_iters", [3, 5000])
def test_propagate_matches_python_loop_bitwise(seed, max_iters):
    g, w, update, s0 = _instance(seed)
    s_np = s0.copy()
    s_py = s0.copy()
    args = (g.out_indptr, g.out_indices, w, update)
    out = _kernels.propagate_scores(*args, s_np, 1e-10, max_iters, window=0)
    *ref, monotone = _python_sweeps(*args, s_py, 1e-10, max_iters)
    assert out == tuple(ref)
    assert monotone  # zero start below the fixed point rises monotonically
    assert np.array_equal(s_np, s_py)


def _shape(name):
    """A graph, the rows to update and start scores (raters at random
    ratings, updated rows at zero) for one row-degree pattern."""
    rng = np.random.default_rng(41)
    if name == "hub":  # node 0 trusts every other node; the rest have 1-3 edges
        n = 400
        edges = {(0, j) for j in range(1, n)}
        edges |= {(i, (i + d) % n) for i in range(1, n) for d in range(1, int(rng.integers(2, 5)))}
    elif name == "equal_degree":  # every row has 3 edges
        n = 90
        edges = {(i, (i + d) % n) for i in range(n) for d in (1, 2, 3)}
    elif name == "degree_one":  # a cycle
        n = 50
        edges = {(i, (i + 1) % n) for i in range(n)}
    else:  # "edgeless_row", "one_row": a random graph in which node 5 trusts nobody
        n = 60
        edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(240, 2)) if a != b and a != 5}
    g = build_graph(n, [(a, b, float(rng.uniform(0.05, 1.0))) for a, b in sorted(edges)])
    raters = 6 + rng.choice(n - 6, size=n // 5, replace=False)  # nodes 0 and 5 are updated
    scores = np.zeros(n)
    scores[raters] = rng.uniform(0.0, 1.0, raters.size)
    update = np.setdiff1d(np.arange(n), raters)
    if name == "one_row":  # the non-rater with the most edges
        update = update[[int(np.argmax(g.out_degrees()[update]))]]
    return g, update.astype(np.int64), scores


@pytest.mark.parametrize("name", ["hub", "equal_degree", "degree_one", "edgeless_row", "one_row"])
@pytest.mark.parametrize("max_iters", [1, 3, 5000])
def test_propagate_row_sums_bitwise_on_degree_patterns(name, max_iters):
    g, update, s0 = _shape(name)
    args = (g.out_indptr, g.out_indices, g.half_weights, update)
    if name == "edgeless_row":
        s0[5] = 0.5  # a row with no edges sums to 0 on the first sweep
    s_np, s_py = s0.copy(), s0.copy()
    out = _kernels.propagate_scores(*args, s_np, 1e-10, max_iters, window=0)
    assert out == tuple(_python_sweeps(*args, s_py, 1e-10, max_iters)[:3])
    assert s_np.tobytes() == s_py.tobytes()
    if name == "edgeless_row":
        assert s_np[5] == 0.0


def test_propagate_accelerated_solve_is_pinned():
    # one accelerated solve on G(2000, 10/2000): its sweep count, residual
    # and score bytes pin the row-sum order and the Anderson mix together
    rng = np.random.default_rng(2000)
    g = random_graph(rng, n=2000, lam=10.0, trust=(0.05, 0.95))
    state = random_state(rng, g.n_nodes, k=0.1)
    w = compute_weights(g, state)
    update = np.flatnonzero(reachability_mask(g, state.raters) & ~state.rater_mask(g.n_nodes)).astype(np.int64)
    s = state.rating_vector(g.n_nodes)
    out = _kernels.propagate_scores(g.out_indptr, g.out_indices, w, update, s, 1e-10, 5000)
    assert (g.n_edges, update.size) == (20021, 1800)
    assert out == (20, float.fromhex("0x1.2119040000000p-35"), True)
    assert hashlib.sha256(s.tobytes()).hexdigest() == (
        "0f1e386e1846dc17b19f231e88fdf82409f7798300837f54e5e77ab91c3192c4"
    )


@pytest.mark.parametrize("max_iters", [0, -1])
def test_propagate_rejects_budget_below_one(max_iters):
    g, w, update, s0 = _instance(5)
    assert update.size
    with pytest.raises(ValueError, match="max_iters"):
        _kernels.propagate_scores(g.out_indptr, g.out_indices, w, update, s0.copy(), 1e-10, max_iters)


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_propagate_singular_gram_takes_plain_steps(monkeypatch, failure):
    # every mixing solve fails: each step falls back to the plain sweep, so
    # the accelerated kernel repeats window = 0 bit for bit, with no NaN
    g, w, update, s0 = _instance(4)
    args = (g.out_indptr, g.out_indices, w, update)
    s_plain = s0.copy()
    plain = _kernels.propagate_scores(*args, s_plain, 1e-10, 5000, window=0)

    def singular(a, b):
        if failure == "raise":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(b.shape, np.nan)

    monkeypatch.setattr(np.linalg, "solve", singular)
    s_acc = s0.copy()
    assert _kernels.propagate_scores(*args, s_acc, 1e-10, 5000) == plain
    assert np.array_equal(s_acc, s_plain) and np.all(np.isfinite(s_acc))


def test_propagate_caps_rows_that_round_above_one():
    # node 0 trusts nine raters at 1, all rating 1: its weights are 1/9 and
    # their summed products round to 1 + 2^-52, which the sweep caps at 1 so
    # that the scores can seed a warm start
    g = build_graph(10, [(0, j, 1.0) for j in range(1, 10)])
    w = g.half_weights
    assert np.bincount(np.zeros(9, dtype=np.int64), weights=w)[0] > 1.0
    for window in (0, _kernels.ANDERSON_WINDOW):
        s = np.r_[0.0, np.ones(9)]
        out = _kernels.propagate_scores(g.out_indptr, g.out_indices, w, np.array([0]), s, 1e-10, 100, window=window)
        assert out == (2, 0.0, True)
        assert s[0] == 1.0


def test_propagate_empty_update_returns_early():
    g, w, _, s0 = _instance(6)
    s = s0.copy()
    out = _kernels.propagate_scores(
        g.out_indptr, g.out_indices, w, np.empty(0, np.int64), s, 1e-10, 100
    )
    assert out == (0, 0.0, True)
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


def _m_matrix(rng, n):
    """Random I - W with W >= 0 and row sums of W below 1: a row-diagonally
    dominant nonsingular M-matrix."""
    w = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.3)
    np.fill_diagonal(w, 0.0)
    w *= rng.uniform(0.2, 0.99, n)[:, None] / np.maximum(w.sum(axis=1), 1e-300)[:, None]
    return np.eye(n) - w


@pytest.mark.parametrize("n", [1, 127, 128, 129])
def test_invert_in_place_matches_numpy_inverse(n):
    rng = np.random.default_rng(n)
    a = _m_matrix(rng, n)
    expect = np.linalg.inv(a)
    out = _kernels.invert_in_place(a, block=128)
    assert out is a
    assert np.max(np.abs(a - expect)) <= 1e-12


def test_invert_in_place_singular_block():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.invert_in_place(a, block=2)


def _influence_columns(g, weights, free, tol, max_iters):
    """Row c: limit scores of a unit injection pinned at free[c], every node
    outside ``free`` held at zero and the other free rows swept to
    convergence."""
    out = np.zeros((free.size, free.size))
    for c, src in enumerate(free):
        scores = np.zeros(g.n_nodes)
        scores[src] = 1.0
        _kernels.propagate_scores(
            g.out_indptr, g.out_indices, weights, free[free != src], scores, tol, max_iters
        )
        out[c, :] = scores[free]
        out[c, c] = 1.0
    return out


@pytest.mark.parametrize("seed", [11, 12])
def test_influence_matches_dense_inverse(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=40, lam=4.0, trust=(0.05, 0.95))
    state = random_state(rng, g.n_nodes, k=(0.1, 0.2))
    w = compute_weights(g, state)
    free = state.non_raters(g.n_nodes)
    dm = delta_init(g, state, SolverConfig(tolerance=1e-12))
    assert dm.free_nodes.tolist() == free.tolist()
    expect = _influence_columns(g, w, free, 1e-13, 10000)
    assert np.max(np.abs(dm.delta - expect)) <= 1e-9


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
    for _ in range(6):
        size = int(rng.integers(3, 400))
        m = rng.uniform(0, 1, (size, size)) * (rng.uniform(0, 1, (size, size)) < 0.5)
        m[np.diag_indices(size)] = rng.uniform(1, 2, size)
        # a few buffer positions are promoted raters: zero rows and columns
        free_pos = np.sort(rng.choice(size, size=max(1, size - int(rng.integers(0, 5))), replace=False))
        gone = np.setdiff1d(np.arange(size), free_pos)
        m[gone, :] = 0.0
        m[:, gone] = 0.0
        n_free = free_pos.size
        s_free = rng.uniform(0, 1, n_free)
        b_free = rng.uniform(0, 1, n_free)
        rating = float(rng.uniform(0.3, 1.0))  # candidates on both sides of it
        sub = m[np.ix_(free_pos, free_pos)]
        delta = sub.T / np.diag(sub)[:, None]
        u, v = np.empty((size, 0)), np.empty((0, size))  # nothing pending
        chunked = _kernels.injection_scan(m, s_free, b_free, rating, free_pos, u, v, chunk=7)
        whole = _kernels.injection_scan(m, s_free, b_free, rating, free_pos, u, v, chunk=size)
        assert chunked == whole == _brute_force_scan(delta, s_free, b_free, rating)


@pytest.mark.parametrize("rank", [0, 1, 32])
def test_injection_scan_applies_pending_factors(rank):
    # the scan on m with pending factors u, v must agree with the scan on
    # the materialized table m - u @ v and with brute force over it
    rng = np.random.default_rng(17 + rank)
    for _ in range(4):
        size = int(rng.integers(40, 300))
        table = rng.uniform(0, 1, (size, size)) * (rng.uniform(0, 1, (size, size)) < 0.5)
        table[np.diag_indices(size)] = rng.uniform(1, 2, size)
        free_pos = np.sort(rng.choice(size, size=size - int(rng.integers(1, 5)), replace=False))
        gone = np.setdiff1d(np.arange(size), free_pos)
        table[gone, :] = 0.0
        table[:, gone] = 0.0
        u = np.empty((size, 32))[:, :rank]  # a view into wider factors, as DeltaMatrix.pending gives
        u[:] = rng.uniform(0, 1, (size, rank))
        v = rng.uniform(0, 1, (rank, size))
        m = table + u @ v
        current = m - u @ v
        n_free = free_pos.size
        s_free = rng.uniform(0, 1, n_free)
        b_free = rng.uniform(0, 1, n_free)
        rating = 0.6
        assert (s_free < rating).any() and (s_free > rating).any()
        sub = current[np.ix_(free_pos, free_pos)]
        delta = sub.T / np.diag(sub)[:, None]
        expect = _brute_force_scan(delta, s_free, b_free, rating)
        nothing_pending = (np.empty((size, 0)), np.empty((0, size)))
        for chunk in (7, size):
            scan = _kernels.injection_scan(current, s_free, b_free, rating, free_pos, *nothing_pending, chunk=chunk)
            assert scan == expect
            assert _kernels.injection_scan(m, s_free, b_free, rating, free_pos, chunk=chunk, u=u, v=v) == expect


def test_injection_scan_pins_candidate_at_rating():
    # 49 * (1 / 49) rounds to just below 1: the candidate's own entry must
    # be the rating itself, as a re-solve pins it, not the scaled product
    m = np.diag([49.0, 1.0])
    s_free = np.zeros(2)
    b_free = np.array([np.nextafter(1.0, 0.0), 0.5])
    assert _kernels.injection_scan(m, s_free, b_free, 1.0, np.arange(2), np.empty((2, 0)), np.empty((0, 2))) == (0, 1)


def test_serial_blas_runs_one_thread_and_restores_the_count():
    # without OpenBLAS symbols the block only runs
    calls = _kernels._OPENBLAS_THREADS
    before = calls[0]() if calls else None
    if calls:
        calls[1](2)
    try:
        with pytest.raises(KeyError):
            with _kernels.serial_blas():
                assert calls is None or calls[0]() == 1
                raise KeyError("the count must come back after an exception")
        assert calls is None or calls[0]() == 2
    finally:
        if calls:
            calls[1](before)
