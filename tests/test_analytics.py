import math

import numpy as np
import pytest
import scipy.stats

from trustsat import (
    ConstantTrust,
    ErdosRenyiSpec,
    ModelParams,
    NoRoot,
    SessionState,
    ValidationError,
    community_thresholds,
    empirical_satisfaction_cdf,
    expected_satisfaction,
    k_max_for_target,
    k_min_for_target,
    poisson_degree_pmf,
    solve_iterative,
)
from helpers import random_graph, random_state

INF = math.inf


def params(**kw):
    base = dict(mean_degree=20.0, trust=0.5, rating=1.0, threshold=0.3)
    base.update(kw)
    return ModelParams(**base)


def test_poisson_pmf_values():
    assert poisson_degree_pmf(1.0, 0) == pytest.approx(math.exp(-1), rel=1e-14)
    assert poisson_degree_pmf(50.0, 50) == pytest.approx(
        scipy.stats.poisson.pmf(50, 50.0), rel=1e-12
    )
    assert poisson_degree_pmf(200.0, 350) == pytest.approx(
        scipy.stats.poisson.pmf(350, 200.0), rel=1e-11
    )


def test_poisson_pmf_normalizes():
    for lam in (0.5, 5.0, 50.0):
        upper = int(lam + 40 * math.sqrt(lam)) + 1
        total = sum(poisson_degree_pmf(lam, d) for d in range(upper))
        assert abs(total - 1.0) <= 1e-12


def test_poisson_pmf_validation():
    with pytest.raises(ValidationError):
        poisson_degree_pmf(0.0, 1)
    with pytest.raises(ValidationError):
        poisson_degree_pmf(1.0, -2)


def test_expected_satisfaction_hand_value():
    p = params(mean_degree=50.0, trust=0.5, rating=1.0)
    assert expected_satisfaction(p, 0.2) == pytest.approx(1 / 6, rel=1e-6)


def test_expected_satisfaction_limits():
    assert expected_satisfaction(params(), 0.0) == 0.0
    p = params(trust=0.7, rating=0.9, mean_degree=3.0)
    q = -math.expm1(-3.0)
    assert expected_satisfaction(p, 1.0) == pytest.approx(0.7 * 0.9 * q, rel=1e-12)
    for bad in (-0.1, 1.5):
        with pytest.raises(ValidationError, match=r"rater_fraction must lie in \[0, 1\]"):
            expected_satisfaction(p, bad)


def test_k_min_hand_value():
    p = params(mean_degree=INF, trust=0.5, rating=1.0, threshold=0.3)
    assert k_min_for_target(p, 0.9) == pytest.approx(0.27 * 0.5 / (0.5 * 0.73), rel=1e-9)
    assert k_min_for_target(p, 0.9) == pytest.approx(0.36986, abs=1e-5)


def test_k_min_small_target_needs_nobody():
    p = params(mean_degree=INF, trust=0.5, threshold=0.3)
    assert k_min_for_target(p, 1e-9) <= 1e-8


def test_k_max_hand_value():
    p = params(mean_degree=INF, trust=0.8, rating=1.0, threshold=0.2)
    assert k_max_for_target(p, 0.5) == pytest.approx(0.375, rel=1e-9)


def test_k_max_vacuous_and_full_trust_limits():
    # rating below the lifted threshold: bound says nothing, clipped to 1
    p = params(mean_degree=INF, trust=0.8, rating=0.9, threshold=0.2)
    assert k_max_for_target(p, 0.95) == 1.0
    # full trust and guaranteed reach: any positive fraction suffices
    p2 = params(mean_degree=INF, trust=1.0, rating=1.0, threshold=0.2)
    assert k_max_for_target(p2, 0.5) == 0.0


def test_bound_ordering():
    p = params(mean_degree=20.0, trust=0.8, rating=1.0, threshold=0.2)
    for share in (0.3, 0.5, 0.7, 0.9):
        k_lo = k_min_for_target(p, share)
        k_hi = k_max_for_target(p, share)
        assert k_lo <= k_hi


def test_params_validation():
    with pytest.raises(ValidationError):
        params(rating=0.2, threshold=0.3)  # rating must exceed threshold
    with pytest.raises(ValidationError):
        params(trust=0.0)
    with pytest.raises(ValidationError):
        params(mean_degree=0.0)


def test_community_identity_when_bound_is_free():
    # nearly-zero threshold with full trust: non-rater share equals the
    # community target
    p = params(mean_degree=INF, trust=1.0, rating=1.0, threshold=1e-9)
    res = community_thresholds(p, 0.8)
    assert res.t_star_min == pytest.approx(0.8, abs=1e-8)


def test_community_residuals_and_monotonicity():
    p = params(mean_degree=20.0, trust=0.8, rating=1.0, threshold=0.2)
    results = {}
    for target in (0.8, 0.9):
        res = community_thresholds(p, target)
        for k_val, t_val in ((res.k_min, res.t_star_min),):
            assert (1 - k_val) * (1 - t_val) == pytest.approx(1 - target, abs=1e-9)
        results[target] = res
    assert results[0.9].k_min >= results[0.8].k_min
    assert results[0.9].k_max >= results[0.8].k_max


def test_community_no_root():
    # sufficient bound already needs k > target share at every T: no root
    p = params(mean_degree=2.0, trust=0.3, rating=1.0, threshold=0.5)
    with pytest.raises(NoRoot):
        community_thresholds(p, 0.05)


def test_cdf_no_raters_all_zero():
    spec = ErdosRenyiSpec(200, 10 / 200, ConstantTrust(0.5), 3)
    table = empirical_satisfaction_cdf(spec, 0.0, 1.0, 3)
    assert table.zero_fraction == 1.0
    assert table.cdf[-1] == 1.0


def test_cdf_isolated_nodes_all_zero():
    spec = ErdosRenyiSpec(200, 0.0, ConstantTrust(0.5), 3)
    table = empirical_satisfaction_cdf(spec, 0.2, 1.0, 3)
    assert table.zero_fraction == 1.0


def test_cdf_mean_tracks_closed_form():
    p = params(mean_degree=20.0, trust=0.5, rating=1.0)
    spec = ErdosRenyiSpec(2000, 20 / 2000, ConstantTrust(0.5), 7)
    table = empirical_satisfaction_cdf(spec, 0.2, p.rating, 5, rng=np.random.default_rng(7))
    predicted = expected_satisfaction(p, 0.2)
    assert abs(table.sample_mean - predicted) / predicted <= 0.05
    assert table.cdf[0] <= 0.01  # nearly everyone is reachable at this density
    assert np.all(np.diff(table.cdf) >= 0)


def test_monte_carlo_alpha_dominance():
    # common trust and rating: heavier rater weight never hurts on average
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_graph(rng, n=150, lam=8.0, trust=0.6)
        state = random_state(rng, g.n_nodes, k=(0.1, 0.3), common_rating=0.9, alpha=0.5)
        lo = solve_iterative(g, state)
        hi_state = SessionState(dict(state.ratings), state.thresholds, 0.8)
        hi = solve_iterative(g, hi_state)
        assert hi.scores.mean() >= lo.scores.mean() - 1e-10
