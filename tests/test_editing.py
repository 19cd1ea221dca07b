import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustsat import (
    ConstantTrust,
    EditingConfig,
    ErdosRenyiSpec,
    NotConverged,
    SessionState,
    SolverConfig,
    TooLarge,
    TrustUpdateConfig,
    UniformTrust,
    ValidationError,
    apply_rater_trust_updates,
    build_graph,
    generate_erdos_renyi,
    run_session,
    satisfied_count,
    select_marginal_greedy,
    select_random,
    select_trust_greedy,
    solve_dense_oracle,
    solve_iterative,
    trust_update,
)
from helpers import count_sweep_layouts, random_graph, random_state


def test_trust_update_identical_ratings():
    cfg = TrustUpdateConfig(gamma=0.5, sharpness=16.0)
    assert trust_update(0.4, 0.7, 0.7, cfg) == pytest.approx(0.7)


def test_trust_update_full_disagreement():
    cfg = TrustUpdateConfig(gamma=0.5, sharpness=3.0)
    assert trust_update(0.4, 1.0, 0.0, cfg) == pytest.approx(0.325)
    assert trust_update(0.4, 0.0, 1.0, cfg) == pytest.approx(0.325)  # symmetric


def test_trust_update_gamma_one_keeps_old():
    cfg = TrustUpdateConfig(gamma=1.0, sharpness=5.0)
    assert trust_update(0.37, 0.1, 0.9, cfg) == 0.37


def test_trust_update_range_and_monotonicity():
    cfg = TrustUpdateConfig(gamma=0.3, sharpness=16.0)
    rng = np.random.default_rng(5)
    prev = None
    for gap in np.linspace(0.0, 1.0, 21):
        val = trust_update(0.5, 0.0, gap, cfg)
        assert 0.0 <= val <= 1.0
        if prev is not None:
            assert val < prev
        prev = val
    for _ in range(200):
        v = trust_update(rng.uniform(), rng.uniform(), rng.uniform(), cfg)
        assert 0.0 <= v <= 1.0
    with pytest.raises(ValidationError):
        trust_update(1.2, 0.5, 0.5, cfg)


def test_apply_updates_no_other_raters():
    g = build_graph(3, [(0, 1, 0.5)])
    state = SessionState({0: 1.0}, np.zeros(3))
    assert apply_rater_trust_updates(g, state, TrustUpdateConfig()) is g


def test_apply_updates_creates_edges_both_ways():
    g = build_graph(3, [(2, 0, 0.4)])
    state = SessionState({0: 0.8, 1: 0.8}, np.zeros(3))
    g2 = apply_rater_trust_updates(g, state, TrustUpdateConfig(gamma=0.5, sharpness=16.0))
    # equal ratings, no prior edges: both directions land at 0.5
    assert g2.edge_trust(0, 1) == pytest.approx(0.5)
    assert g2.edge_trust(1, 0) == pytest.approx(0.5)
    assert g2.edge_trust(2, 0) == 0.4  # untouched
    assert g is not g2 and g.edge_trust(0, 1) is None  # original intact


def test_apply_updates_blends_existing_edge():
    g = build_graph(2, [(0, 1, 0.4), (1, 0, 0.2)])
    state = SessionState({0: 0.9, 1: 0.9}, np.zeros(2))
    g2 = apply_rater_trust_updates(g, state, TrustUpdateConfig(gamma=0.5, sharpness=16.0))
    assert g2.edge_trust(0, 1) == pytest.approx(0.5 * 0.4 + 0.5)
    assert g2.edge_trust(1, 0) == pytest.approx(0.5 * 0.2 + 0.5)


def test_apply_updates_gamma_one_adds_no_edge():
    g = build_graph(4, [(0, 1, 0.4), (2, 3, 0.7)])
    state = SessionState({0: 0.1, 2: 0.9, 3: 0.5}, np.zeros(4))
    g2 = apply_rater_trust_updates(g, state, TrustUpdateConfig(gamma=1.0, sharpness=16.0))
    assert g2 == g and g2.n_edges == 2


def test_rater_rater_updates_leave_solution_alone():
    rng = np.random.default_rng(41)
    for _ in range(8):
        g = random_graph(rng, n_range=(15, 50))
        state = random_state(rng, g.n_nodes, k=(0.15, 0.35), min_raters=2)
        before = solve_iterative(g, state)
        g2 = apply_rater_trust_updates(g, state, TrustUpdateConfig(0.3, 7.0))
        after = solve_iterative(g2, state)
        assert np.max(np.abs(after.scores - before.scores)) <= 1e-12


def _per_round_update(g, state, new_rater, cfg):
    """Reference: re-blend the pairs of `new_rater` with every earlier rater
    through a dict of all edges, and rebuild the whole graph."""
    others = [j for j in state.ratings if j != new_rater]
    if not others:
        return g
    r_new = state.ratings[new_rater]
    src, dst, trust = g.edge_arrays()
    edges = {(int(s), int(d)): float(t) for s, d, t in zip(src, dst, trust)}
    for j in others:
        r_j = state.ratings[j]
        for pair in ((new_rater, j), (j, new_rater)):
            t_new = trust_update(edges.get(pair, 0.0), r_new, r_j, cfg)
            if t_new > 0.0:
                edges[pair] = t_new
            else:
                edges.pop(pair, None)
    return build_graph(g.n_nodes, [(s, d, t) for (s, d), t in edges.items()])


def _check_against_per_round_reference(g, b, cfg, tu, seed):
    """The session's trust update, merged once after it ends, equals the
    per-round reference replayed in join order."""
    log = run_session(g, b, cfg, rng=np.random.default_rng(seed))
    updated = apply_rater_trust_updates(g, log.state, tu)

    ref = g
    replay = SessionState({}, log.state.thresholds, cfg.alpha)
    for r in log.rounds:
        replay.add_rater(r.rater, r.rating)
        ref = _per_round_update(ref, replay, r.rater, tu)
    assert updated == ref
    assert updated.out_trust.tobytes() == ref.out_trust.tobytes()
    assert np.array_equal(updated.in_indptr, ref.in_indptr)
    assert np.array_equal(updated.in_indices, ref.in_indices)
    return log


STRATEGIES = ("random", "trust", "marginal")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("alpha", [0.5, 0.7])
def test_session_trust_updates_match_per_round_reference(strategy, alpha):
    # every rating exceeds every threshold, so no session stops for deadlock
    # before its rounds have blended a few rater pairs
    rng = np.random.default_rng([STRATEGIES.index(strategy), int(alpha * 10)])
    for gamma in (0.0, 0.3, 1.0):
        for per_node in (False, True):
            n = int(rng.integers(20, 60))
            g = random_graph(rng, n=n, lam=float(rng.uniform(2.0, 6.0)))
            ratings = rng.uniform(0.3, 1.0, size=n) if per_node else float(rng.uniform(0.3, 1.0))
            tu = TrustUpdateConfig(gamma, float(rng.uniform(1.0, 20.0)))
            cfg = EditingConfig(
                strategy=strategy,
                rating_source=ratings,
                alpha=alpha,
                max_rounds=int(rng.integers(5, 30)),
            )
            log = _check_against_per_round_reference(
                g, rng.uniform(0.05, 0.3, size=n), cfg, tu, int(rng.integers(1000))
            )
            assert log.raters_used() >= 5


def test_session_trust_updates_match_per_round_reference_n300():
    g = generate_erdos_renyi(ErdosRenyiSpec(300, 10 / 300, UniformTrust(), 300))
    cfg = EditingConfig(
        strategy="trust",
        rating_source=np.random.default_rng(300).uniform(0.2, 1.0, size=300),
        max_rounds=120,
    )
    tu = TrustUpdateConfig(gamma=0.5, sharpness=16.0)
    log = _check_against_per_round_reference(g, np.full(300, 0.2), cfg, tu, 0)
    assert log.raters_used() == 120


def test_session_gamma_one_adds_no_edge():
    # gamma = 1 keeps every rater-pair edge as it was and creates none
    g = ring_graph(12, t=0.5)
    cfg = EditingConfig(strategy="random", max_rounds=6)
    log = run_session(g, np.full(12, 0.9), cfg, rng=np.random.default_rng(1))
    assert log.raters_used() == 6
    assert apply_rater_trust_updates(g, log.state, TrustUpdateConfig(gamma=1.0, sharpness=4.0)) == g


def ring_graph(n, t=0.8):
    return build_graph(n, [(i, (i + 1) % n, t) for i in range(n)])


def test_session_publishes_with_zero_thresholds():
    g = ring_graph(12)
    cfg = EditingConfig(strategy="random")
    log = run_session(g, np.zeros(12), cfg, rng=np.random.default_rng(3))
    assert log.status == "published"
    assert log.raters_used() == 1  # one rating reaches everyone around the ring
    assert np.all(log.final.scores > 0)


def test_session_high_thresholds_low_trust_needs_everyone():
    # scores can never exceed the 0.5 trust ceiling, so only raters satisfy
    g = ring_graph(10, t=0.5)
    cfg = EditingConfig(strategy="random", rating_source=1.0)
    log = run_session(g, np.full(10, 0.9), cfg, rng=np.random.default_rng(4))
    assert log.status == "published"
    assert log.raters_used() == 10


def test_session_deadlock_on_low_self_rating():
    # node 0 rates below its own threshold; everyone else is satisfied
    g = build_graph(2, [(1, 0, 1.0)])
    ratings = np.array([0.1, 0.5])
    cfg = EditingConfig(strategy="trust", rating_source=ratings)
    log = run_session(g, np.array([0.3, 0.05]), cfg)
    assert [(r.rater, r.satisfied) for r in log.rounds] == [(0, 1)]
    assert log.status == "deadlock"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_session_out_of_reach_ends_before_round_one(strategy):
    # no score exceeds the largest rating: every rating 0 or equal to the
    # threshold, or one threshold at 1 with a target of every node
    g = random_graph(np.random.default_rng(31), n=30, lam=4.0)
    b = np.full(30, 0.2)
    one_at_top = b.copy()
    one_at_top[7] = 1.0
    for thresholds, rating in ((b, 0.0), (b, 0.2), (one_at_top, 1.0)):
        log = run_session(g, thresholds, EditingConfig(strategy=strategy, rating_source=rating))
        assert (log.status, log.raters_used()) == ("deadlock", 0)


def _session_under_earlier_rule(g, b, cfg, seed):
    """(status, rounds) of a random or trust session that stops for
    deadlock only once every unsatisfied node is a rater."""
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    state = SessionState({}, b, cfg.alpha)
    sv = solve_iterative(g, state)
    count, satisfied = satisfied_count(sv, b)
    rounds = []
    while True:
        if count / n >= cfg.publish_fraction:
            return "published", rounds
        if not (~satisfied & ~state.rater_mask(n)).any():
            return "deadlock", rounds
        if len(rounds) == n:
            return "budget_exhausted", rounds
        node = select_random(g, state, rng) if cfg.strategy == "random" else select_trust_greedy(g, state)
        state.add_rater(node, cfg.rating_for(node))
        sv = solve_iterative(g, state, warm=sv.scores)
        count, satisfied = satisfied_count(sv, b)
        rounds.append((len(rounds) + 1, node, cfg.rating_for(node), count))


@st.composite
def small_sessions(draw):
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs))))
    trusts = draw(st.lists(st.floats(0.05, 1.0), min_size=len(chosen), max_size=len(chosen)))
    g = build_graph(n, [(i, j, t) for (i, j), t in zip(chosen, trusts)])
    b = np.array(draw(st.lists(st.floats(0.0, 0.6), min_size=n, max_size=n)))
    per_node = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
    cfg = EditingConfig(
        strategy=draw(st.sampled_from(["random", "trust"])),
        rating_source=draw(st.one_of(st.floats(0.0, 1.0), per_node)),
        publish_fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
        alpha=draw(st.sampled_from([0.5, 0.75])),
    )
    return g, b, cfg, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(small_sessions())
def test_session_stops_early_only_where_it_could_not_publish(inst):
    # a session the earlier rule published runs round for round as before;
    # any other session ends with a prefix of its earlier rounds
    g, b, cfg, seed = inst
    before_status, before = _session_under_earlier_rule(g, b, cfg, seed)
    log = run_session(g, b, cfg, rng=np.random.default_rng(seed))
    rounds = [(r.round, r.rater, r.rating, r.satisfied) for r in log.rounds]
    if before_status == "published":
        assert (log.status, rounds) == (before_status, before)
    else:
        assert log.status in (before_status, "deadlock")
        assert rounds == before[:len(rounds)]


def test_session_budget_exhausted():
    g = ring_graph(30, t=0.5)
    cfg = EditingConfig(strategy="random", max_rounds=1)
    log = run_session(g, np.full(30, 0.9), cfg, rng=np.random.default_rng(9))
    assert log.status == "budget_exhausted"
    assert log.raters_used() == 1


def test_session_publish_fraction_stops_early():
    g = ring_graph(10, t=0.5)
    full = run_session(
        g,
        np.full(10, 0.9),
        EditingConfig(strategy="random"),
        rng=np.random.default_rng(7),
    )
    partial = run_session(
        g,
        np.full(10, 0.9),
        EditingConfig(strategy="random", publish_fraction=0.5),
        rng=np.random.default_rng(7),
    )
    assert partial.status == "published"
    assert partial.raters_used() < full.raters_used()
    assert partial.rounds[-1].fraction >= 0.5


def _check_rounds_against_oracle(g, b, log):
    """Every round's satisfied count equals the dense oracle's for the
    raters so far, and the session stops at the first round that publishes."""
    state = SessionState({}, b, log.state.alpha)
    counts = []
    for r in log.rounds:
        state.add_rater(r.rater, r.rating)
        counts.append(satisfied_count(solve_dense_oracle(g, state), b)[0])
    assert [r.satisfied for r in log.rounds] == counts
    assert log.status == "published"
    assert counts[-1] == g.n_nodes and all(c < g.n_nodes for c in counts[:-1])


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
def test_session_on_empty_graph_is_validation_error(strategy):
    cfg = EditingConfig(strategy=strategy)
    with pytest.raises(ValidationError, match=">= 1 node, got 0"):
        run_session(build_graph(0, []), np.zeros(0), cfg)


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
def test_session_single_node(strategy):
    g = build_graph(1, [])
    cfg = EditingConfig(strategy=strategy)
    log = run_session(g, np.array([0.2]), cfg, rng=np.random.default_rng(0))
    assert [(r.round, r.rater, r.satisfied) for r in log.rounds] == [(1, 0, 1)]
    _check_rounds_against_oracle(g, np.array([0.2]), log)
    # no rating can lift the node above its threshold: deadlock before round 1
    low = run_session(g, np.array([0.2]), dataclasses.replace(cfg, rating_source=0.1))
    assert low.status == "deadlock" and low.raters_used() == 0


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
def test_session_two_nodes(strategy):
    # node 0 trusts node 1: picking 1 first satisfies both, picking 0 first
    # leaves 1 with no trust path to a rater
    g = build_graph(2, [(0, 1, 0.5)])
    b = np.full(2, 0.2)
    cfg = EditingConfig(strategy=strategy)
    for seed in range(4):
        log = run_session(g, b, cfg, rng=np.random.default_rng(seed))
        first = log.rounds[0].rater
        assert log.raters_used() == (1 if first == 1 else 2)
        if strategy != "random":
            assert first == 1
        _check_rounds_against_oracle(g, b, log)


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
def test_session_alpha_one(strategy):
    # at alpha = 1 a non-rater with no rater neighbor averages over its
    # non-rater neighbors (the alpha -> 1 limit), and marginal rounds re-solve
    rng = np.random.default_rng(43)
    for seed in range(3):
        g = random_graph(rng, n=12, lam=3.0)
        b = rng.uniform(0.05, 0.6, size=12)
        cfg = EditingConfig(strategy=strategy, alpha=1.0)
        log = run_session(g, b, cfg, SolverConfig(tolerance=1e-12), np.random.default_rng(seed))
        assert 1 <= log.raters_used() <= 12
        _check_rounds_against_oracle(g, b, log)


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
@pytest.mark.parametrize("n, seed", [(300, 4), (40, 25)])
def test_session_trust_one_graph(strategy, n, seed):
    # every trust exactly 1: the all-free table is singular, so marginal
    # round 1 re-solves every candidate, and a row next to raters at 1 sums
    # to one, so its score must not round above 1 into the next warm start
    # (the trust session on the 40-node graph meets such a row)
    g = generate_erdos_renyi(ErdosRenyiSpec(n, 6 / n, ConstantTrust(1.0), seed))
    b = np.full(n, 0.2)
    log = run_session(g, b, EditingConfig(strategy=strategy), rng=np.random.default_rng(0))
    _check_rounds_against_oracle(g, b, log)
    assert np.all((log.final.scores >= 0.0) & (log.final.scores <= 1.0))
    if strategy == "marginal" and n == 300:
        assert log.raters_used() == 1


def test_session_fraction_nondecreasing_at_half_alpha():
    rng = np.random.default_rng(13)
    for seed in range(5):
        g = random_graph(rng, n=50, lam=5.0)
        cfg = EditingConfig(strategy="random", rating_source=0.9)
        log = run_session(g, np.full(50, 0.3), cfg, rng=np.random.default_rng(seed))
        fractions = [r.fraction for r in log.rounds]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_session_deterministic():
    g = random_graph(np.random.default_rng(17), n=40, lam=4.0)
    cfg = EditingConfig(strategy="random", rating_source=1.0)
    a = run_session(g, np.full(40, 0.2), cfg, rng=np.random.default_rng(55))
    b = run_session(g, np.full(40, 0.2), cfg, rng=np.random.default_rng(55))
    assert [(r.round, r.rater, r.rating, r.satisfied) for r in a.rounds] == [
        (r.round, r.rater, r.rating, r.satisfied) for r in b.rounds
    ]
    assert a.status == b.status


def test_session_marginal_fast_and_slow_agree():
    g = random_graph(np.random.default_rng(19), n=35, lam=4.0)
    b = np.full(35, 0.25)
    solver = SolverConfig(tolerance=1e-12)
    fast = run_session(g, b, EditingConfig(strategy="marginal"), solver)
    # step the same session by hand with the re-solve greedy
    state = SessionState({}, b)
    slow = []
    for _ in fast.rounds:
        node = select_marginal_greedy(g, state, 1.0, solver)
        state.add_rater(node, 1.0)
        slow.append((node, satisfied_count(solve_iterative(g, state, solver), b)[0]))
    assert [(r.rater, r.satisfied) for r in fast.rounds] == slow
    assert fast.status == "published" and slow[-1][1] == 35


def _pinned_instance():
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=14, lam=3.0, trust=0.5)
    b = np.round(rng.uniform(0.1, 0.4, 14), 2)
    return g, b, np.round(rng.uniform(0.2, 1.0, 14), 2)


# (round, rater, rating, satisfied) per round and the status of one seeded
# session per strategy; constant trust makes the trust greedy break ties
PINNED_SESSIONS = {
    # the random and trust sessions stop once a rater's rating at or below
    # its threshold puts publication out of reach: node 5 rates 0.2 <= 0.24
    # and node 13 rates 0.22 <= 0.32
    ("random", 0.5): ("deadlock", [
        (1, 11, 0.58, 1), (2, 1, 0.43, 2), (3, 3, 0.76, 4), (4, 4, 0.43, 5), (5, 2, 0.72, 6), (6, 12, 0.82, 9),
        (7, 10, 0.67, 11), (8, 8, 0.45, 11), (9, 0, 0.97, 11), (10, 5, 0.2, 11)]),
    ("trust", 0.5): ("deadlock", [
        (1, 11, 0.58, 1), (2, 1, 0.43, 2), (3, 3, 0.76, 4), (4, 6, 0.98, 7), (5, 12, 0.82, 12), (6, 2, 0.72, 12),
        (7, 13, 0.22, 12)]),
    ("marginal", 0.5): ("published", [
        (1, 1, 0.43, 1), (2, 3, 0.76, 3), (3, 7, 0.44, 4), (4, 6, 0.98, 8), (5, 12, 0.82, 12), (6, 2, 0.72, 12),
        (7, 4, 0.43, 13), (8, 9, 0.91, 14)]),
    ("marginal", 0.75): ("published", [
        (1, 11, 0.58, 2), (2, 1, 0.43, 4), (3, 6, 0.98, 10), (4, 2, 0.72, 11), (5, 0, 0.97, 12), (6, 3, 0.76, 13),
        (7, 4, 0.43, 14)]),
}


@pytest.mark.parametrize("kind,alpha", list(PINNED_SESSIONS))
def test_seeded_session_is_pinned(kind, alpha):
    g, b, ratings = _pinned_instance()
    cfg = EditingConfig(strategy=kind, rating_source=ratings, alpha=alpha)
    log = run_session(g, b, cfg, rng=np.random.default_rng(3))
    assert (log.status, [(r.round, r.rater, r.rating, r.satisfied) for r in log.rounds]) == PINNED_SESSIONS[kind, alpha]


def test_marginal_session_off_half_alpha_runs_the_resolve_greedy(caplog):
    g, b, ratings = _pinned_instance()
    cfg = EditingConfig(strategy="marginal", rating_source=ratings, alpha=0.75)
    with caplog.at_level(logging.DEBUG, logger="trustsat.editing"):
        log = run_session(g, b, cfg)
    slow = [r.getMessage() for r in caplog.records if "slow path" in r.getMessage()]
    assert len(slow) == len(log.rounds) > 0
    assert all(f"round {i}: slow path" in m and "alpha = 0.5" in m and "0.75" in m for i, m in enumerate(slow, 1))
    state = SessionState({}, b, alpha=0.75)
    by_hand = []
    for _ in log.rounds:
        node = select_marginal_greedy(g, state, 1.0)
        state.add_rater(node, float(ratings[node]))
        by_hand.append(node)
    assert [r.rater for r in log.rounds] == by_hand


def test_marginal_session_off_half_alpha_builds_one_sweep_layout(monkeypatch):
    # the re-solve greedy's trial solves and the session's own solves share
    # the graph's layout
    g, b, ratings = _pinned_instance()
    built = count_sweep_layouts(monkeypatch)
    cfg = EditingConfig(strategy="marginal", rating_source=ratings, alpha=0.75, max_rounds=5)
    log = run_session(g, b, cfg)
    assert len(log.rounds) > 1
    assert len(built) == 1


def test_marginal_session_over_cap_raises_before_round_one(monkeypatch):
    import trustsat.editing as editing_mod

    g = random_graph(np.random.default_rng(19), n=35, lam=4.0)
    b = np.full(35, 0.25)
    monkeypatch.setattr(editing_mod, "DELTA_FAST_PATH_CAP", 34)
    assert run_session(g, b, EditingConfig(strategy="trust")).status == "published"

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(editing_mod, "solve_iterative", no_solve)
    for alpha in (0.5, 0.75):
        with pytest.raises(TooLarge):
            run_session(g, b, EditingConfig(strategy="marginal", alpha=alpha))


def test_session_unconverged_solve_raises():
    g = random_graph(np.random.default_rng(23), n=30, lam=4.0)
    cfg = EditingConfig(strategy="trust")
    with pytest.raises(NotConverged, match="session round 1 solve"):
        run_session(g, np.full(30, 0.2), cfg, SolverConfig(max_iterations=1))


def test_session_with_trust_updates_runs_and_persists():
    g = random_graph(np.random.default_rng(23), n=30, lam=4.0)
    cfg = EditingConfig(strategy="trust", rating_source=1.0)
    log = run_session(g, np.full(30, 0.2), cfg)
    assert log.status == "published"
    updated = apply_rater_trust_updates(g, log.state, TrustUpdateConfig(gamma=0.5, sharpness=16.0))
    raters = np.flatnonzero(log.state.rater_mask(g.n_nodes))
    if raters.size >= 2:
        i, j = int(raters[0]), int(raters[1])
        # equal ratings leave every rater pair fully agreeing
        assert updated.edge_trust(i, j) is not None


def test_rating_table_range():
    for bad in ([0.5, 1.5], [0.5, np.nan]):
        cfg = EditingConfig(strategy="random", rating_source=np.array(bad))
        with pytest.raises(ValidationError):
            cfg.validate(2)


def test_state_cleared_resets_raters():
    state = SessionState({3: 0.8, 5: 0.6}, np.zeros(10))
    fresh = state.cleared()
    assert fresh.ratings == {} and state.ratings  # original untouched
    assert fresh.alpha == state.alpha


def test_session_log_csv(tmp_path):
    g = ring_graph(6)
    cfg = EditingConfig(strategy="random")
    log = run_session(g, np.zeros(6), cfg, rng=np.random.default_rng(2))
    path = tmp_path / "session.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,rater,rating,satisfied,fraction"
    assert lines[-1] == "# status=published"
    assert len(lines) == 2 + log.raters_used()
