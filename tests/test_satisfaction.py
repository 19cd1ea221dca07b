import numpy as np
import pytest

from trustsat import _kernels
from trustsat import (
    ErdosRenyiSpec,
    SessionState,
    SolverConfig,
    TooLarge,
    UniformTrust,
    ValidationError,
    build_graph,
    compute_weights,
    generate_erdos_renyi,
    reachability_mask,
    satisfied_count,
    solve_dense_oracle,
    solve_iterative,
)
from helpers import random_graph, random_state


def test_weight_single_rater_neighbor():
    # one neighbor who is a rater: weight collapses to the trust value
    g = build_graph(2, [(0, 1, 0.6)])
    for alpha in (0.5, 0.8, 1.0):
        st = SessionState({1: 1.0}, np.zeros(2), alpha)
        w = compute_weights(g, st)
        assert w[0] == pytest.approx(0.6, abs=1e-15)


def test_weight_rater_vs_nonrater_split():
    # full-trust rater neighbor and non-rater neighbor split alpha / 1-alpha
    g = build_graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    st = SessionState({1: 1.0}, np.zeros(3), 0.5)
    w = compute_weights(g, st)
    assert w[:2].tolist() == [0.5, 0.5]
    st = SessionState({1: 1.0}, np.zeros(3), 0.8)
    w = compute_weights(g, st)
    assert w[0] == pytest.approx(0.8) and w[1] == pytest.approx(0.2)


def test_weight_rows_sum_below_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, trust=(0.05, 1.0))
        st = random_state(rng, g.n_nodes, alpha=float(rng.choice([0.5, 0.7, 1.0])))
        w = compute_weights(g, st)
        sums = np.zeros(g.n_nodes)
        np.add.at(sums, np.repeat(np.arange(g.n_nodes), g.out_degrees()), w)
        assert sums.max() <= 1.0 + 1e-12


def test_weight_alpha_one_without_rater_neighbors():
    # alpha -> 1 limit: average over non-rater neighbors only
    g = build_graph(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 1.0)])
    st = SessionState({2: 1.0}, np.zeros(3), 1.0)
    w = compute_weights(g, st)
    # node 0 trusts non-rater 1 and rater 2; rater neighbor exists, normal rule
    assert w[1] == pytest.approx(0.25 / 0.5)
    assert w[0] == pytest.approx(0.0)
    # node 1 trusts only rater 2
    assert w[2] == pytest.approx(1.0)
    g2 = build_graph(3, [(0, 1, 0.4), (0, 2, 0.8), (2, 1, 1.0)])
    st2 = SessionState({1: 1.0}, np.zeros(3), 1.0)
    w2 = compute_weights(g2, st2)
    # node 0: rater neighbor 1 (t=0.4), non-rater neighbor 2 (t=0.8)
    assert w2[0] == pytest.approx(0.4 * 0.4 / 0.4)
    assert w2[1] == pytest.approx(0.0)
    # node 0 has only non-rater neighbors: the 0/0 row takes the limit form
    g3 = build_graph(4, [(0, 1, 0.5), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    st3 = SessionState({3: 1.0}, np.zeros(4), 1.0)
    w3 = compute_weights(g3, st3)
    assert w3[0] == pytest.approx(0.25 / 1.5)
    assert w3[1] == pytest.approx(1.0 / 1.5)
    sv = solve_iterative(g3, st3)
    dv = solve_dense_oracle(g3, st3)
    assert np.max(np.abs(sv.scores - dv.scores)) <= 1e-10
    assert sv.scores[0] == pytest.approx(0.25 / 1.5 + 1.0 / 1.5, abs=1e-9)


def test_reachability_chain_and_components():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    assert reachability_mask(g, [2]).tolist() == [True, True, True]
    g2 = build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    assert reachability_mask(g2, [1]).tolist() == [True, True, False, False]
    assert reachability_mask(g2, []).tolist() == [False] * 4


def test_path_example_values():
    # D trusts A (0.5) who trusts rater B (0.6, rating 0.8)
    g = build_graph(3, [(2, 1, 0.5), (1, 0, 0.6)])
    st = SessionState({0: 0.8}, np.full(3, 0.3))
    for sv in (solve_iterative(g, st), solve_dense_oracle(g, st)):
        assert sv.scores[1] == pytest.approx(0.48, abs=1e-12)
        assert sv.scores[2] == pytest.approx(0.24, abs=1e-12)
    count, mask = satisfied_count(solve_iterative(g, st), st.thresholds)
    assert count == 2 and mask.tolist() == [True, True, False]


def test_complete_graph_single_rater_alpha_one():
    rng = np.random.default_rng(11)
    n = 8
    edges = [
        (i, j, float(rng.uniform(0.1, 1.0))) for i in range(n) for j in range(n) if i != j
    ]
    g = build_graph(n, edges)
    rating = 0.7
    st = SessionState({3: rating}, np.zeros(n), alpha=1.0)
    sv = solve_iterative(g, st)
    for i in range(n):
        expect = rating if i == 3 else g.edge_trust(i, 3) * rating
        assert abs(sv.scores[i] - expect) <= 1e-12


def test_no_raters_all_zero():
    g = build_graph(3, [(0, 1, 0.5)])
    st = SessionState({}, np.zeros(3))
    sv = solve_iterative(g, st)
    assert np.all(sv.scores == 0.0) and sv.converged


def test_cycle_with_external_rater():
    # A <-> F cycle fed by rater R: A trusts F (0.5) and R (0.9), F trusts A (0.8)
    g = build_graph(3, [(0, 1, 0.5), (0, 2, 0.9), (1, 0, 0.8)])
    st = SessionState({2: 1.0}, np.zeros(3))
    sv = solve_dense_oracle(g, st)
    assert sv.scores[0] == pytest.approx(0.675, abs=1e-12)
    assert sv.scores[1] == pytest.approx(0.54, abs=1e-12)
    sv2 = solve_iterative(g, st)
    assert np.max(np.abs(sv2.scores - sv.scores)) <= 1e-8


def test_iterative_matches_dense_on_random_instances():
    rng = np.random.default_rng(29)
    for _ in range(15):
        g = random_graph(rng, n_range=(20, 200))
        st = random_state(rng, g.n_nodes, alpha=float(rng.choice([0.5, 0.7, 1.0])))
        a = solve_iterative(g, st)
        b = solve_dense_oracle(g, st)
        assert a.converged
        assert np.max(np.abs(a.scores - b.scores)) <= 1e-8


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
@pytest.mark.parametrize("trust", [(0.05, 0.95), 1.0], ids=["uniform", "trust-1"])
def test_accelerated_matches_dense_oracle(alpha, trust):
    # ratings of 0 and 1 side by side, cold and warm starts; at trust 1 the
    # weights of a row sum to one and the residual differences go collinear
    rng = np.random.default_rng(int(alpha * 10) + (7 if trust == 1.0 else 0))
    for trial in range(12):
        g = random_graph(rng, n_range=(2, 200), lam_range=(1.0, 10.0), trust=trust)
        st = random_state(rng, g.n_nodes, k=(0.005, 0.4), alpha=alpha)
        st.ratings = {i: float(rng.choice([0.0, 1.0])) for i in st.ratings}
        warm = rng.uniform(0.0, 1.0, g.n_nodes) if trial % 2 else None
        sv = solve_iterative(g, st, SolverConfig(warm_start=warm))
        assert sv.converged
        assert np.max(np.abs(sv.scores - solve_dense_oracle(g, st).scores)) <= 1e-8
        assert np.all((sv.scores >= 0.0) & (sv.scores <= 1.0))


def test_accelerated_needs_at_most_half_the_sweeps(monkeypatch):
    # the cold solve of the paper's rater-fraction curve at its smallest k
    n = 2000
    g = generate_erdos_renyi(ErdosRenyiSpec(n, 30 / n, UniformTrust(), 5))
    raters = np.random.default_rng(5).choice(n, size=int(0.02 * n), replace=False)
    st = SessionState({int(i): 1.0 for i in raters}, np.full(n, 0.2))
    fast = solve_iterative(g, st)
    accelerated = _kernels.propagate_scores
    monkeypatch.setattr(_kernels, "propagate_scores", lambda *args: accelerated(*args, window=0))
    plain = solve_iterative(g, st)
    assert fast.converged and plain.converged
    assert fast.iterations_used <= plain.iterations_used // 2
    assert np.max(np.abs(fast.scores - plain.scores)) <= 1e-8


def test_warm_start_agrees_with_zero_start():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng)
        st = random_state(rng, g.n_nodes)
        cold = solve_iterative(g, st)
        warm = np.ones(g.n_nodes)
        sv = solve_iterative(g, st, SolverConfig(warm_start=warm))
        assert np.max(np.abs(sv.scores - cold.scores)) <= 10 * SolverConfig().tolerance


def test_warm_start_rejects_nan():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    st = SessionState({2: 1.0}, np.zeros(3))
    with pytest.raises(ValidationError):
        solve_iterative(g, st, SolverConfig(warm_start=[0.0, np.nan, 0.2]))


def test_budget_exhaustion_flagged():
    g = build_graph(3, [(2, 1, 0.5), (1, 0, 0.6)])
    st = SessionState({0: 0.8}, np.zeros(3))
    sv = solve_iterative(g, st, SolverConfig(max_iterations=1))
    assert not sv.converged and sv.iterations_used == 1 and sv.max_residual > 0


def test_monotone_sweeps_from_zero_start():
    rng = np.random.default_rng(37)
    g = random_graph(rng)
    st = random_state(rng, g.n_nodes)
    w = compute_weights(g, st)
    mask = reachability_mask(g, st.raters)
    update = np.flatnonzero(mask & ~st.rater_mask(g.n_nodes)).astype(np.int64)

    def plain(max_iters):
        s = st.rating_vector(g.n_nodes)
        out = _kernels.propagate_scores(
            g.out_indptr, g.out_indices, w, update, s, SolverConfig().tolerance, max_iters, window=0
        )
        return out, s

    (iters, _, converged), full = plain(10**6)
    assert converged
    # every prefix of the plain sweep sits coordinate-wise at or above the one before
    prev = np.zeros(g.n_nodes)
    for k in range(1, iters + 1):
        part = plain(k)[1]
        assert np.all(part >= prev - 1e-15)
        prev = part
    assert np.array_equal(prev, full)


def test_scores_pinned_outside_reach():
    g = build_graph(4, [(0, 1, 0.9), (2, 3, 0.9)])
    st = SessionState({1: 1.0}, np.zeros(4))
    warm = np.ones(4)
    sv = solve_iterative(g, st, SolverConfig(warm_start=warm))
    assert sv.scores[2] == 0.0 and sv.scores[3] == 0.0


def test_satisfied_count_boundaries():
    s = np.array([0.3, 0.5, 0.0])
    b = np.array([0.3, 0.5, 0.0])
    assert satisfied_count(s, b)[0] == 0  # strict inequality
    assert satisfied_count(np.array([0.48]), np.array([0.3]))[0] == 1


def test_dense_oracle_guard():
    g = build_graph(2001, [])
    st = SessionState({0: 1.0}, np.zeros(2001))
    with pytest.raises(TooLarge):
        solve_dense_oracle(g, st)


def test_state_validation():
    g = build_graph(2, [(0, 1, 0.5)])
    with pytest.raises(ValidationError):
        solve_iterative(g, SessionState({1: 1.0}, np.zeros(2), alpha=0.4))
    with pytest.raises(ValidationError):
        solve_iterative(g, SessionState({1: 1.5}, np.zeros(2)))
    with pytest.raises(ValidationError):
        solve_iterative(g, SessionState({5: 1.0}, np.zeros(2)))


def test_single_node_rater():
    g = build_graph(1, [])
    st = SessionState({0: 0.42}, np.zeros(1))
    assert solve_dense_oracle(g, st).scores[0] == 0.42
    assert solve_iterative(g, st).scores[0] == 0.42
