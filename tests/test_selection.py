import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustsat import (
    AlphaUnsupported,
    EditingConfig,
    NoNonRaters,
    NotConverged,
    SessionState,
    SingularInfluence,
    SolverConfig,
    StaleDelta,
    TooLarge,
    build_graph,
    delta_init,
    delta_promote,
    marginal_greedy_fast,
    marginal_satisfaction,
    run_session,
    satisfied_count,
    select_marginal_greedy,
    select_optimal_exhaustive,
    select_random,
    select_trust_greedy,
    solve_iterative,
)
from trustsat.selection import PENDING_RANK
from helpers import random_graph, random_state

TIGHT = SolverConfig(tolerance=1e-12)


def star(n_leaves, t=0.9):
    """Leaves 1..n all trusting the center node 0."""
    return build_graph(n_leaves + 1, [(i, 0, t) for i in range(1, n_leaves + 1)])


def test_select_random_basics():
    g = build_graph(4, [])
    state = SessionState({0: 1.0, 1: 1.0, 2: 1.0}, np.zeros(4))
    assert select_random(g, state, np.random.default_rng(0)) == 3
    state_all = SessionState({i: 1.0 for i in range(4)}, np.zeros(4))
    with pytest.raises(NoNonRaters):
        select_random(g, state_all, np.random.default_rng(0))
    st = SessionState({0: 1.0}, np.zeros(4))
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    assert select_random(g, st, rng1) == select_random(g, st, rng2)


def test_select_random_uniform():
    g = build_graph(10, [])
    state = SessionState({}, np.zeros(10))
    rng = np.random.default_rng(17)
    draws = np.array([select_random(g, state, rng) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=10) / draws.size
    assert np.all(np.abs(freq - 0.1) <= 0.01)


def test_select_trust_greedy_star_and_ties():
    g = star(3)
    state = SessionState({}, np.zeros(4))
    assert select_trust_greedy(g, state) == 0
    # no incoming trust at all: smallest index wins
    g0 = build_graph(3, [])
    assert select_trust_greedy(g0, SessionState({}, np.zeros(3))) == 0
    # equal totals on nodes 2 and 7: smallest index wins
    g_tie = build_graph(
        8,
        [
            (0, 2, 0.6), (1, 2, 0.6),
            (3, 5, 0.8),
            (4, 7, 0.6), (6, 7, 0.6),
        ],
    )
    assert select_trust_greedy(g_tie, SessionState({}, np.zeros(8))) == 2


def test_select_trust_greedy_ignores_rater_trusters():
    # node 1's only truster is a rater, node 2's truster is not
    g = build_graph(4, [(0, 1, 0.9), (3, 2, 0.5)])
    state = SessionState({0: 1.0}, np.zeros(4))
    assert select_trust_greedy(g, state) == 2


def test_marginal_satisfaction_star():
    g = star(3)
    b = np.full(4, 0.5)
    state = SessionState({}, b)
    assert marginal_satisfaction(g, state, 0, 1.0, TIGHT) == 4
    assert marginal_satisfaction(g, state, 1, 1.0, TIGHT) == 1
    assert state.ratings == {}  # input untouched


def test_marginal_satisfaction_isolated_node():
    g = build_graph(3, [(1, 2, 0.9)])
    state = SessionState({}, np.full(3, 0.5))
    assert marginal_satisfaction(g, state, 0, 1.0, TIGHT) == 1


def test_marginal_satisfaction_zero_when_nothing_changes():
    # candidate surrounded by satisfied raters, promoted at its own score
    g = build_graph(3, [(0, 1, 0.8), (0, 2, 0.8)])
    state = SessionState({1: 0.9, 2: 0.9}, np.full(3, 0.1))
    sv = solve_iterative(g, state, TIGHT)
    ms = marginal_satisfaction(g, state, 0, float(sv.scores[0]), TIGHT)
    assert ms == 0


def test_select_marginal_greedy_star_cases():
    g = star(3)
    assert select_marginal_greedy(g, SessionState({}, np.full(4, 0.5)), 1.0, TIGHT) == 0
    # two disconnected stars, 5 leaves vs 3 leaves: bigger star's center wins
    edges = [(i, 0, 0.9) for i in range(1, 6)] + [(i + 6, 6, 0.9) for i in range(1, 4)]
    g2 = build_graph(10, edges)
    assert select_marginal_greedy(g2, SessionState({}, np.full(10, 0.5)), 1.0, TIGHT) == 0
    # nothing gains anyone: smallest index
    g3 = build_graph(3, [])
    assert select_marginal_greedy(g3, SessionState({}, np.ones(3)), 1.0, TIGHT) == 0


def test_resolve_greedy_raises_at_first_unconverged_solve(monkeypatch):
    # alpha 0.75 has no influence table, so a marginal round re-solves per
    # candidate; with a one-sweep budget the first trial solve cannot converge
    g = random_graph(np.random.default_rng(41), n=30, lam=4.0)
    solves = []

    def counted(*args, **kwargs):
        sv = solve_iterative(*args, **kwargs)
        solves.append(sv.converged)
        return sv

    monkeypatch.setattr("trustsat.selection.solve_iterative", counted)
    one_sweep = SolverConfig(max_iterations=1)
    state = SessionState({}, np.full(30, 0.2), alpha=0.75)
    with pytest.raises(NotConverged, match="trial solve for candidate"):
        select_marginal_greedy(g, state, 1.0, one_sweep)
    assert len(solves) <= 2 and solves[-1] is False
    solves.clear()
    with pytest.raises(NotConverged, match="trial solve for candidate"):
        marginal_satisfaction(g, state, 0, 1.0, one_sweep)
    assert solves == [True, False]


def test_delta_init_chain():
    # 0 trusts 1 trusts 2, full trust: unit at 2 reaches both upstream nodes
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dm = delta_init(g, SessionState({}, np.zeros(3)), TIGHT)
    expected = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=float)
    assert np.max(np.abs(dm.delta - expected)) <= 1e-10
    assert np.all(np.diag(dm.delta) == 1.0)


def test_delta_init_requires_half_alpha():
    g = build_graph(2, [(0, 1, 0.5)])
    for alpha in (0.7, 1.0):
        with pytest.raises(AlphaUnsupported):
            delta_init(g, SessionState({}, np.zeros(2), alpha=alpha))


def test_delta_promote_chain_kills_paths_through_promoted():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dm = delta_init(g, SessionState({}, np.zeros(3)), TIGHT)
    dm2 = delta_promote(dm, 1)
    assert dm2.free_nodes.tolist() == [0, 2]
    # influence of 2 on 0 ran through 1 and is gone
    assert dm2.delta[dm2.position(2), dm2.position(0)] == pytest.approx(0.0, abs=1e-10)
    assert dm2.free.tolist() == [True, False, True]


def test_delta_promote_disjoint_influence_unchanged():
    g = build_graph(4, [(0, 1, 0.8), (2, 3, 0.8)])
    dm = delta_init(g, SessionState({}, np.zeros(4)), TIGHT)
    before = dm.delta  # delta_promote updates dm in place
    before_pos = {v: dm.position(v) for v in (0, 1)}
    dm2 = delta_promote(dm, 3)
    for src in (0, 1):
        for dst_ in (0, 1):
            assert dm2.delta[dm2.position(src), dm2.position(dst_)] == pytest.approx(
                before[before_pos[src], before_pos[dst_]], abs=1e-12
            )


def test_delta_promote_matches_reinit():
    rng = np.random.default_rng(211)
    for _ in range(12):
        g = random_graph(rng, n_range=(12, 50), lam_range=(2, 6))
        state = random_state(rng, g.n_nodes, k=(0.05, 0.2))
        dm = delta_init(g, state, TIGHT)
        free = dm.free_nodes
        for _step in range(3):
            if free.size <= 1:
                break
            k = int(free[rng.integers(free.size)])
            dm = delta_promote(dm, k)
            state.add_rater(k, 1.0)
            ref = delta_init(g, state, TIGHT)
            assert np.max(np.abs(dm.delta - ref.delta)) <= 1e-8
            free = dm.free_nodes


def test_fast_path_matches_slow_path_across_flushes():
    # 70 promotes flush the pending factors twice and leave 6 pending
    rng = np.random.default_rng(233)
    g = random_graph(rng, n=100, lam=6.0)
    state = SessionState({}, rng.uniform(0.1, 0.9, g.n_nodes), 0.5)
    sv = solve_iterative(g, state, TIGHT)
    dm = delta_init(g, state, TIGHT)
    steps = 70
    for _step in range(steps):
        slow = select_marginal_greedy(g, state, 1.0, TIGHT)
        fast = marginal_greedy_fast(g, state, sv, dm, 1.0)
        assert fast == slow
        dm = delta_promote(dm, fast)
        state.add_rater(fast, 1.0)
        ref = delta_init(g, state, TIGHT)
        assert np.max(np.abs(dm.delta - ref.delta)) <= 1e-8
        sv = solve_iterative(g, state, TIGHT)
    assert steps >= 2 * PENDING_RANK and dm.rank == steps % PENDING_RANK


def test_delta_matrix_stale_checks():
    g = build_graph(3, [(0, 1, 0.5)])
    state = SessionState({}, np.zeros(3))
    dm = delta_init(g, state, TIGHT)
    with pytest.raises(StaleDelta):
        delta_promote(dm, 99)
    other = SessionState({1: 1.0}, np.zeros(3))
    sv = solve_iterative(g, other, TIGHT)
    with pytest.raises(StaleDelta):
        marginal_greedy_fast(g, other, sv, dm)


def test_fast_path_matches_slow_path_per_step():
    rng = np.random.default_rng(223)
    for _ in range(8):
        g = random_graph(rng, n=60, lam=6.0)
        thresholds = rng.uniform(0.1, 0.9, g.n_nodes)
        state = SessionState({}, thresholds, 0.5)
        sv = solve_iterative(g, state, TIGHT)
        dm = delta_init(g, state, TIGHT)
        for _step in range(5):
            slow = select_marginal_greedy(g, state, 1.0, TIGHT)
            fast = marginal_greedy_fast(g, state, sv, dm, 1.0)
            assert fast == slow
            dm = delta_promote(dm, fast)
            state.add_rater(fast, 1.0)
            sv = solve_iterative(g, state, TIGHT)


def _step_fast_and_slow(g, state, steps, rating):
    """Pick ``steps`` raters by re-solve, checking each against the fast
    pick whenever the influence table exists; a singular table is retried
    every round, as run_session does. Returns the rounds it was singular."""
    singular = []
    dm = None
    for step in range(steps):
        slow = select_marginal_greedy(g, state, rating, TIGHT)
        if dm is None:
            try:
                dm = delta_init(g, state, TIGHT)
            except SingularInfluence:
                singular.append(step)
        if dm is not None:
            sv = solve_iterative(g, state, TIGHT)
            assert marginal_greedy_fast(g, state, sv, dm, rating) == slow
            delta_promote(dm, slow)
        state.add_rater(slow, rating)
    return singular


@st.composite
def trust_one_graphs(draw):
    """Graphs on 1 to 8 nodes with every edge at trust exactly 1 (as
    ConstantTrust(1.0) generates them), and thresholds in [0, 1)."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    thresholds = draw(st.lists(st.floats(0.0, 0.99), min_size=n, max_size=n))
    return build_graph(n, [(i, j, 1.0) for i, j in edges]), np.array(thresholds)


@settings(max_examples=150, deadline=None)
@given(trust_one_graphs())
def test_fast_path_matches_slow_path_trust_one(inst):
    # from no raters until every node rates; closed classes at trust 1 make
    # the table singular until a pick breaks them
    g, thresholds = inst
    _step_fast_and_slow(g, SessionState({}, thresholds), g.n_nodes, 1.0)


def test_singular_table_two_cycle():
    g = build_graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(SingularInfluence):
        delta_init(g, SessionState({}, np.zeros(2)), TIGHT)
    assert _step_fast_and_slow(g, SessionState({}, np.zeros(2)), 2, 1.0) == [0]


@pytest.mark.parametrize("k", [4, 6])
def test_singular_table_trust_one_clique(k):
    # every pivot block is invertible in floating point here; the
    # certificate M (I - W) 1 = 1 is what rejects the inverse
    g = build_graph(k, [(i, j, 1.0) for i in range(k) for j in range(k) if i != j])
    with pytest.raises(SingularInfluence, match="certificate"):
        delta_init(g, SessionState({}, np.zeros(k)), TIGHT)
    assert _step_fast_and_slow(g, SessionState({}, np.full(k, 0.5)), 3, 1.0) == [0]


def _closed_three_cycle(seed):
    """Uniform-trust G(60, 6/60) whose nodes 0 -> 1 -> 2 -> 0 trust only
    each other, at trust 1: a closed class that makes I - W singular while
    none of them rates."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=60, lam=6.0)
    src, dst, t = g.edge_arrays()
    keep = src >= 3
    edges = list(zip(src[keep].tolist(), dst[keep].tolist(), t[keep].tolist()))
    edges += [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    return build_graph(60, edges), rng.uniform(0.1, 0.9, 60)


@pytest.mark.parametrize("seed", [0, 1])
def test_singular_table_closed_three_cycle(seed):
    g, thresholds = _closed_three_cycle(seed)
    with pytest.raises(SingularInfluence):
        delta_init(g, SessionState({}, thresholds), TIGHT)
    # the first pick breaks the cycle; the table is rebuilt and then promoted
    assert _step_fast_and_slow(g, SessionState({}, thresholds), 6, 1.0) == [0]


def test_session_falls_back_on_singular_table(caplog, monkeypatch):
    g, thresholds = _closed_three_cycle(0)
    caplog.set_level(logging.DEBUG, logger="trustsat.editing")
    slow_rounds = []

    def counted(*args, **kwargs):
        slow_rounds.append(len(args[1].ratings))
        return select_marginal_greedy(*args, **kwargs)

    monkeypatch.setattr("trustsat.editing.select_marginal_greedy", counted)
    log = run_session(g, thresholds, EditingConfig("marginal"), TIGHT)
    assert log.status == "published"
    assert slow_rounds == [0]  # only the first pick; the table is rebuilt after it
    fallbacks = [r.getMessage() for r in caplog.records if "slow path" in r.getMessage()]
    assert len(fallbacks) == 1 and fallbacks[0].startswith("round 1: slow path (select_marginal_greedy)")

    state = SessionState({}, thresholds)
    expect = []
    while satisfied_count(solve_iterative(g, state, TIGHT), thresholds)[0] < g.n_nodes:
        node = select_marginal_greedy(g, state, 1.0, TIGHT)
        state.add_rater(node, 1.0)
        expect.append((node, satisfied_count(solve_iterative(g, state, TIGHT), thresholds)[0]))
    assert [(r.rater, r.satisfied) for r in log.rounds] == expect


def test_fast_path_matches_slow_path_rating_below_scores():
    rng = np.random.default_rng(229)
    falling = 0
    for _ in range(6):
        g = random_graph(rng, n=60, lam=6.0)
        thresholds = rng.uniform(0.05, 0.5, g.n_nodes)
        raters = rng.choice(g.n_nodes, size=4, replace=False)
        state = SessionState({int(i): 1.0 for i in raters}, thresholds, 0.5)
        sv = solve_iterative(g, state, TIGHT)
        falling += int(np.count_nonzero(sv.scores[~state.rater_mask(g.n_nodes)] > 0.3))
        assert _step_fast_and_slow(g, state, 5, 0.3) == []
    assert falling > 0  # candidates above the rating take the full-scan branch


def test_exhaustive_empty_budget_and_star():
    g = star(3)
    state = SessionState({}, np.full(4, 0.5))
    assert select_optimal_exhaustive(g, state, 0, 1.0, TIGHT) == ()
    assert select_optimal_exhaustive(g, state, 1, 1.0, TIGHT) == (0,)


def test_exhaustive_guard():
    g = build_graph(30, [])
    state = SessionState({}, np.zeros(30))
    with pytest.raises(TooLarge):
        select_optimal_exhaustive(g, state, 2)
    g2 = build_graph(5, [])
    with pytest.raises(TooLarge):
        select_optimal_exhaustive(g2, SessionState({}, np.zeros(5)), 6)


def test_exhaustive_raises_on_unconverged_solve():
    rng = np.random.default_rng(239)
    g = random_graph(rng, n=12, lam=4.0)
    state = SessionState({}, rng.uniform(0.05, 0.6, g.n_nodes), 0.5)
    with pytest.raises(NotConverged, match="exhaustive solve"):
        select_optimal_exhaustive(g, state, 2, 1.0, SolverConfig(max_iterations=1))


def test_exhaustive_solves_max_cover():
    # elements 0..5 point at the sets containing them; zero thresholds make
    # "satisfied" mean "covered or selected"
    sets = {6: [0, 1, 2], 7: [2, 3], 8: [3, 4, 5], 9: [0, 5]}
    edges = [(elem, s, 0.7) for s, elems in sets.items() for elem in elems]
    g = build_graph(10, edges)
    state = SessionState({}, np.zeros(10))
    budget = 2
    picked = select_optimal_exhaustive(g, state, budget, 1.0, TIGHT)

    def coverage(combo):
        return len(set().union(*(sets[s] for s in combo))) if combo else 0

    best_cover = max(coverage(c) for c in itertools.combinations(sets, budget))
    assert all(p in sets for p in picked)
    assert coverage(picked) == best_cover


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(227)
    for _ in range(10):
        g = random_graph(rng, n=int(rng.integers(8, 13)), lam=2.5)
        thresholds = rng.uniform(0.05, 0.6, g.n_nodes)
        budget = int(rng.integers(1, 4))
        base = SessionState({}, thresholds, 0.5)
        greedy_state = base.copy()
        for _pick in range(budget):
            node = select_marginal_greedy(g, greedy_state, 1.0, TIGHT)
            greedy_state.add_rater(node, 1.0)
        greedy_count, _ = satisfied_count(solve_iterative(g, greedy_state, TIGHT), thresholds)
        best = select_optimal_exhaustive(g, base, budget, 1.0, TIGHT)
        best_state = base.copy()
        for node in best:
            best_state.add_rater(node, 1.0)
        best_count, _ = satisfied_count(solve_iterative(g, best_state, TIGHT), thresholds)
        assert greedy_count <= best_count
