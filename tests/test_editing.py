import dataclasses

import numpy as np
import pytest

from trustsat import (
    ConstantTrust,
    EditingConfig,
    ErdosRenyiSpec,
    NotConverged,
    SelectionStrategy,
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
    solve_dense_oracle,
    solve_iterative,
    trust_update,
)
from helpers import random_graph, random_state


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


def _check_against_per_round_reference(g, b, cfg, seed):
    """run_session's graph equals the per-round reference replayed in join
    order, and its rounds and final scores equal those of the same session
    without updates."""
    log = run_session(g, b, cfg, rng=np.random.default_rng(seed))
    plain_cfg = dataclasses.replace(cfg, trust_update=None)
    plain = run_session(g, b, plain_cfg, rng=np.random.default_rng(seed))
    assert log.rounds == plain.rounds and log.status == plain.status
    assert np.array_equal(log.final.scores, plain.final.scores)
    assert plain.graph is g

    ref = g
    replay = SessionState({}, log.state.thresholds, cfg.alpha)
    for r in log.rounds:
        replay.add_rater(r.rater, r.rating)
        ref = _per_round_update(ref, replay, r.rater, cfg.trust_update)
    assert log.graph == ref
    assert log.graph.out_trust.tobytes() == ref.out_trust.tobytes()
    assert np.array_equal(log.graph.in_indptr, ref.in_indptr)
    assert np.array_equal(log.graph.in_indices, ref.in_indices)
    return log


STRATEGIES = ("random", "trust", "marginal")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("alpha", [0.5, 0.7])
def test_session_trust_updates_match_per_round_reference(strategy, alpha):
    rng = np.random.default_rng([STRATEGIES.index(strategy), int(alpha * 10)])
    for gamma in (0.0, 0.3, 1.0):
        for per_node in (False, True):
            n = int(rng.integers(20, 60))
            g = random_graph(rng, n=n, lam=float(rng.uniform(2.0, 6.0)))
            ratings = rng.uniform(0.0, 1.0, size=n) if per_node else float(rng.uniform(0.3, 1.0))
            cfg = EditingConfig(
                strategy=SelectionStrategy(strategy),
                rating_source=ratings,
                trust_update=TrustUpdateConfig(gamma, float(rng.uniform(1.0, 20.0))),
                alpha=alpha,
                max_rounds=int(rng.integers(5, 30)),
            )
            log = _check_against_per_round_reference(
                g, rng.uniform(0.05, 0.6, size=n), cfg, int(rng.integers(1000))
            )
            assert log.raters_used() >= 2


def test_session_trust_updates_match_per_round_reference_n300():
    g = generate_erdos_renyi(ErdosRenyiSpec(300, 10 / 300, UniformTrust(), 300))
    cfg = EditingConfig(
        strategy=SelectionStrategy("trust"),
        rating_source=np.random.default_rng(300).uniform(0.2, 1.0, size=300),
        trust_update=TrustUpdateConfig(gamma=0.5, sharpness=16.0),
        max_rounds=120,
    )
    log = _check_against_per_round_reference(g, np.full(300, 0.2), cfg, 0)
    assert log.raters_used() == 120


def test_session_gamma_one_adds_no_edge():
    # gamma = 1 keeps every rater-pair edge as it was and creates none
    g = ring_graph(12, t=0.5)
    cfg = EditingConfig(
        strategy=SelectionStrategy("random"),
        max_rounds=6,
        trust_update=TrustUpdateConfig(gamma=1.0, sharpness=4.0),
    )
    log = run_session(g, np.full(12, 0.9), cfg, rng=np.random.default_rng(1))
    assert log.raters_used() == 6
    assert log.graph == g


def ring_graph(n, t=0.8):
    return build_graph(n, [(i, (i + 1) % n, t) for i in range(n)])


def test_session_publishes_with_zero_thresholds():
    g = ring_graph(12)
    cfg = EditingConfig(strategy=SelectionStrategy("random"))
    log = run_session(g, np.zeros(12), cfg, rng=np.random.default_rng(3))
    assert log.status == "published"
    assert log.raters_used() == 1  # one rating reaches everyone around the ring
    assert np.all(log.final.scores > 0)


def test_session_high_thresholds_low_trust_needs_everyone():
    # scores can never exceed the 0.5 trust ceiling, so only raters satisfy
    g = ring_graph(10, t=0.5)
    cfg = EditingConfig(strategy=SelectionStrategy("random"), rating_source=1.0)
    log = run_session(g, np.full(10, 0.9), cfg, rng=np.random.default_rng(4))
    assert log.status == "published"
    assert log.raters_used() == 10


def test_session_deadlock_on_low_self_rating():
    # node 0 rates below its own threshold; everyone else is satisfied
    g = build_graph(2, [(1, 0, 1.0)])
    ratings = np.array([0.1, 0.5])
    cfg = EditingConfig(
        strategy=SelectionStrategy("trust"), rating_source=ratings
    )
    log = run_session(g, np.array([0.5, 0.05]), cfg)
    assert log.rounds[0].rater == 0
    assert log.status == "deadlock"


def test_session_budget_exhausted():
    g = ring_graph(30, t=0.5)
    cfg = EditingConfig(strategy=SelectionStrategy("random"), max_rounds=1)
    log = run_session(g, np.full(30, 0.9), cfg, rng=np.random.default_rng(9))
    assert log.status == "budget_exhausted"
    assert log.raters_used() == 1


def test_session_publish_fraction_stops_early():
    g = ring_graph(10, t=0.5)
    full = run_session(
        g,
        np.full(10, 0.9),
        EditingConfig(strategy=SelectionStrategy("random")),
        rng=np.random.default_rng(7),
    )
    partial = run_session(
        g,
        np.full(10, 0.9),
        EditingConfig(strategy=SelectionStrategy("random"), publish_fraction=0.5),
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
def test_session_single_node(strategy):
    g = build_graph(1, [])
    cfg = EditingConfig(strategy=SelectionStrategy(strategy))
    log = run_session(g, np.array([0.2]), cfg, rng=np.random.default_rng(0))
    assert [(r.round, r.rater, r.satisfied) for r in log.rounds] == [(1, 0, 1)]
    _check_rounds_against_oracle(g, np.array([0.2]), log)
    low = run_session(g, np.array([0.2]), dataclasses.replace(cfg, rating_source=0.1))
    assert low.status == "deadlock" and low.raters_used() == 1


@pytest.mark.parametrize("strategy", ["random", "trust", "marginal"])
def test_session_two_nodes(strategy):
    # node 0 trusts node 1: picking 1 first satisfies both, picking 0 first
    # leaves 1 with no trust path to a rater
    g = build_graph(2, [(0, 1, 0.5)])
    b = np.full(2, 0.2)
    cfg = EditingConfig(strategy=SelectionStrategy(strategy))
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
        cfg = EditingConfig(strategy=SelectionStrategy(strategy), alpha=1.0)
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
    log = run_session(g, b, EditingConfig(strategy=SelectionStrategy(strategy)), rng=np.random.default_rng(0))
    _check_rounds_against_oracle(g, b, log)
    assert np.all((log.final.scores >= 0.0) & (log.final.scores <= 1.0))
    if strategy == "marginal" and n == 300:
        assert log.raters_used() == 1


def test_session_fraction_nondecreasing_at_half_alpha():
    rng = np.random.default_rng(13)
    for seed in range(5):
        g = random_graph(rng, n=50, lam=5.0)
        cfg = EditingConfig(strategy=SelectionStrategy("random"), rating_source=0.9)
        log = run_session(g, np.full(50, 0.3), cfg, rng=np.random.default_rng(seed))
        fractions = [r.fraction for r in log.rounds]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_session_deterministic():
    g = random_graph(np.random.default_rng(17), n=40, lam=4.0)
    cfg = EditingConfig(strategy=SelectionStrategy("random"), rating_source=1.0)
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
    fast = run_session(g, b, EditingConfig(strategy=SelectionStrategy("marginal")), solver)
    # step the same session by hand with the re-solve greedy
    state = SessionState({}, b)
    slow = []
    for _ in fast.rounds:
        node = select_marginal_greedy(g, state, 1.0, solver)
        state.add_rater(node, 1.0)
        slow.append((node, satisfied_count(solve_iterative(g, state, solver), b)[0]))
    assert [(r.rater, r.satisfied) for r in fast.rounds] == slow
    assert fast.status == "published" and slow[-1][1] == 35


def test_marginal_session_over_cap_raises_before_round_one(monkeypatch):
    import trustsat.editing as editing_mod

    g = random_graph(np.random.default_rng(19), n=35, lam=4.0)
    b = np.full(35, 0.25)
    monkeypatch.setattr(editing_mod, "DELTA_FAST_PATH_CAP", 34)
    assert run_session(g, b, EditingConfig(strategy=SelectionStrategy("trust"))).status == "published"

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(editing_mod, "solve_iterative", no_solve)
    for alpha in (0.5, 0.75):
        with pytest.raises(TooLarge):
            run_session(g, b, EditingConfig(strategy=SelectionStrategy("marginal"), alpha=alpha))


def test_session_unconverged_solve_raises():
    g = random_graph(np.random.default_rng(23), n=30, lam=4.0)
    cfg = EditingConfig(strategy=SelectionStrategy("trust"))
    with pytest.raises(NotConverged, match="session round 1 solve"):
        run_session(g, np.full(30, 0.2), cfg, SolverConfig(max_iterations=1))


def test_session_with_trust_updates_runs_and_persists():
    g = random_graph(np.random.default_rng(23), n=30, lam=4.0)
    cfg = EditingConfig(
        strategy=SelectionStrategy("trust"),
        rating_source=1.0,
        trust_update=TrustUpdateConfig(gamma=0.5, sharpness=16.0),
    )
    log = run_session(g, np.full(30, 0.2), cfg)
    assert log.status == "published"
    raters = log.state.raters
    if raters.size >= 2:
        i, j = int(raters[0]), int(raters[1])
        # equal ratings leave every rater pair fully agreeing
        assert log.graph.edge_trust(i, j) is not None


def test_rating_table_range():
    for bad in ([0.5, 1.5], [0.5, np.nan]):
        cfg = EditingConfig(strategy=SelectionStrategy("random"), rating_source=np.array(bad))
        with pytest.raises(ValidationError):
            cfg.validate(2)


def test_state_cleared_resets_raters():
    state = SessionState({3: 0.8, 5: 0.6}, np.zeros(10))
    fresh = state.cleared()
    assert fresh.ratings == {} and state.ratings  # original untouched
    assert fresh.alpha == state.alpha


def test_session_log_csv(tmp_path):
    g = ring_graph(6)
    cfg = EditingConfig(strategy=SelectionStrategy("random"))
    log = run_session(g, np.zeros(6), cfg, rng=np.random.default_rng(2))
    path = tmp_path / "session.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,rater,rating,satisfied,fraction"
    assert lines[-1] == "# status=published"
    assert len(lines) == 2 + log.raters_used()
