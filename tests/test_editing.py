import dataclasses

import numpy as np
import pytest

from trustsat import (
    EditingConfig,
    ErdosRenyiSpec,
    SelectionStrategy,
    SessionState,
    SolverConfig,
    TrustUpdateConfig,
    UniformTrust,
    ValidationError,
    apply_rater_trust_updates,
    build_graph,
    generate_erdos_renyi,
    run_session,
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
    cfg_fast = EditingConfig(strategy=SelectionStrategy("marginal"))
    fast = run_session(g, b, cfg_fast, SolverConfig(tolerance=1e-12))
    # force the slow path by dropping the cap
    import trustsat.editing as editing_mod

    old_cap = editing_mod.DELTA_FAST_PATH_CAP
    editing_mod.DELTA_FAST_PATH_CAP = 0
    try:
        slow = run_session(g, b, cfg_fast, SolverConfig(tolerance=1e-12))
    finally:
        editing_mod.DELTA_FAST_PATH_CAP = old_cap
    assert [r.rater for r in fast.rounds] == [r.rater for r in slow.rounds]
    assert fast.status == slow.status


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
