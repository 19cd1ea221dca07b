"""Model-level invariants on randomized instances."""
import numpy as np
from hypothesis import given, settings, strategies as st

from trustsat import (
    SessionState,
    SolverConfig,
    build_graph,
    reachability_mask,
    solve_iterative,
)
from helpers import random_graph, random_state

TOL = SolverConfig().tolerance


@st.composite
def instances(draw, max_nodes=10, alphas=(0.5, 0.7, 1.0), common_rating=False, constant_trust=False):
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs))))
    if constant_trust:
        t = draw(st.floats(0.05, 1.0))
        trusts = [t] * len(chosen)
    else:
        trusts = draw(
            st.lists(st.floats(0.05, 1.0), min_size=len(chosen), max_size=len(chosen))
        )
    g = build_graph(n, [(i, j, t) for (i, j), t in zip(chosen, trusts)])
    raters = sorted(draw(st.sets(st.sampled_from(range(n)), min_size=1)))
    if common_rating:
        r = draw(st.floats(0.0, 1.0))
        ratings = {i: r for i in raters}
    else:
        vals = draw(st.lists(st.floats(0.0, 1.0), min_size=len(raters), max_size=len(raters)))
        ratings = dict(zip(raters, vals))
    thresholds = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    )
    alpha = draw(st.sampled_from(alphas))
    return g, SessionState(ratings, thresholds, alpha)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_scores_bounded(inst):
    g, state = inst
    sv = solve_iterative(g, state)
    assert sv.scores.min() >= 0.0
    assert sv.scores.max() <= 1.0


@settings(max_examples=60, deadline=None)
@given(instances())
def test_conservative_band(inst):
    # every positive non-rater score is a convex combination of
    # trust-discounted neighbor scores
    g, state = inst
    sv = solve_iterative(g, state)
    rater = state.rater_mask(g.n_nodes)
    for i in range(g.n_nodes):
        if rater[i]:
            continue
        nbrs, trusts = g.out_neighbors(i)
        if nbrs.size == 0 or sv.scores[i] <= 0.0:
            continue
        vals = trusts * sv.scores[nbrs]
        assert vals.min() - 1e-9 <= sv.scores[i] <= vals.max() + 1e-9


@settings(max_examples=60, deadline=None)
@given(instances())
def test_unreached_nodes_are_exactly_zero(inst):
    g, state = inst
    sv = solve_iterative(g, state)
    mask = reachability_mask(g, np.flatnonzero(state.rater_mask(g.n_nodes)))
    assert np.all(sv.scores[~mask] == 0.0)
    # and reached non-raters got their score from somewhere real
    rater = state.rater_mask(g.n_nodes)
    assert np.all(sv.scores[rater] == state.rating_vector(g.n_nodes)[rater])


@settings(max_examples=40, deadline=None)
@given(instances(common_rating=True, constant_trust=True), st.sampled_from([0.6, 0.7, 0.9]))
def test_alpha_monotone_under_common_rating_and_trust(inst, alpha_hi):
    # raising the rater weight never lowers any score when every edge
    # carries the same trust and every rater gave the same rating
    g, state = inst
    base = solve_iterative(g, SessionState(dict(state.ratings), state.thresholds, 0.5))
    high = solve_iterative(g, SessionState(dict(state.ratings), state.thresholds, alpha_hi))
    assert np.all(high.scores >= base.scores - 10 * TOL)


@settings(max_examples=40, deadline=None)
@given(instances(alphas=(0.5,)), st.floats(0.0, 1.0))
def test_promotion_never_lowers_scores_at_half_alpha(inst, bump):
    g, state = inst
    sv = solve_iterative(g, state)
    free = np.flatnonzero(~state.rater_mask(g.n_nodes))
    if free.size == 0:
        return
    cand = int(free[0])
    rating = min(1.0, sv.scores[cand] + bump * (1.0 - sv.scores[cand]))
    promoted = state.copy()
    promoted.add_rater(cand, rating)
    sv2 = solve_iterative(g, promoted)
    assert np.all(sv2.scores >= sv.scores - 10 * TOL)


def test_order_irrelevance():
    rng = np.random.default_rng(101)
    for _ in range(20):
        g = random_graph(rng, n_range=(10, 40))
        state = random_state(rng, g.n_nodes, k=(0.1, 0.4), min_raters=2)
        items = list(state.ratings.items())
        fwd = SessionState(dict(items), state.thresholds, 0.5)
        rev = SessionState(dict(reversed(items)), state.thresholds, 0.5)
        a = solve_iterative(g, fwd)
        b = solve_iterative(g, rev)
        assert np.array_equal(a.scores, b.scores)

        # incremental warm-started builds in two orders agree too
        def incremental(order):
            st_inc = SessionState({}, state.thresholds, 0.5)
            warm = None
            sv = None
            for node, r in order:
                st_inc.add_rater(node, r)
                sv = solve_iterative(g, st_inc, warm=warm)
                warm = sv.scores
            return sv.scores

        perm = list(items)
        rng.shuffle(perm)
        assert np.max(np.abs(incremental(items) - incremental(perm))) <= 10 * TOL


def test_rater_rater_edge_deletion_is_invisible():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 15:
        g = random_graph(rng, n_range=(10, 40), lam_range=(2, 6))
        state = random_state(rng, g.n_nodes, k=(0.2, 0.4), min_raters=2)
        raters = np.flatnonzero(state.rater_mask(g.n_nodes))
        src, dst, trust = g.edge_arrays()
        edges = list(zip(src.tolist(), dst.tolist(), trust.tolist()))
        i, j = int(raters[0]), int(raters[1])
        if g.edge_trust(i, j) is None:
            edges.append((i, j, 0.7))
        g_with = build_graph(g.n_nodes, edges)
        g_without = build_graph(
            g.n_nodes, [(s, d, t) for s, d, t in edges if (s, d) != (i, j)]
        )
        a = solve_iterative(g_with, state)
        b = solve_iterative(g_without, state)
        assert np.array_equal(a.scores, b.scores)
        checked += 1


def test_disconnected_component_deletion_is_invisible():
    rng = np.random.default_rng(107)
    for _ in range(15):
        ga = random_graph(rng, n_range=(8, 25), lam_range=(1, 5))
        gb = random_graph(rng, n_range=(8, 25), lam_range=(1, 5))
        na, nb = ga.n_nodes, gb.n_nodes
        sa, da, ta = ga.edge_arrays()
        sb, db, tb = gb.edge_arrays()
        union_edges = list(zip(sa.tolist(), da.tolist(), ta.tolist())) + [
            (int(s) + na, int(d) + na, float(t)) for s, d, t in zip(sb, db, tb)
        ]
        g_union = build_graph(na + nb, union_edges)
        state_a = random_state(rng, na, k=(0.1, 0.3))
        state_b = random_state(rng, nb, k=(0.1, 0.3))
        combined = dict(state_a.ratings)
        combined.update({node + na: r for node, r in state_b.ratings.items()})
        thresholds = np.concatenate([state_a.thresholds, state_b.thresholds])
        sv_union = solve_iterative(g_union, SessionState(combined, thresholds, 0.5))
        sv_a = solve_iterative(ga, state_a)
        assert np.max(np.abs(sv_union.scores[:na] - sv_a.scores)) <= 10 * TOL


def test_reduction_to_direct_trust_times_rating():
    # complete graph, a single rater, full rater weight
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        edges = [
            (i, j, float(rng.uniform(0.05, 1.0))) for i in range(n) for j in range(n) if i != j
        ]
        g = build_graph(n, edges)
        rater = int(rng.integers(n))
        rating = float(rng.uniform(0.1, 1.0))
        sv = solve_iterative(g, SessionState({rater: rating}, np.zeros(n), 1.0))
        for i in range(n):
            expect = rating if i == rater else g.edge_trust(i, rater) * rating
            assert abs(sv.scores[i] - expect) <= 1e-12
