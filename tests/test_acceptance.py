"""Acceptance suite: one test per release criterion, at stated tolerances.

Each criterion reports a PASS/FAIL line, echoed in the terminal summary
after the run (see conftest).
"""
import contextlib

import numpy as np
import pytest
import scipy.stats

from trustsat import (
    ConstantTrust,
    ErdosRenyiSpec,
    ModelParams,
    SessionState,
    SolverConfig,
    TrustUpdateConfig,
    UniformTrust,
    apply_rater_trust_updates,
    build_graph,
    delta_init,
    delta_promote,
    empirical_satisfaction_cdf,
    expected_satisfaction,
    generate_erdos_renyi,
    k_max_for_target,
    k_min_for_target,
    marginal_greedy_fast,
    reachability_mask,
    satisfied_count,
    select_marginal_greedy,
    select_optimal_exhaustive,
    solve_dense_oracle,
    solve_iterative,
    trust_update,
)
from trustsat.experiments import (
    compare_strategies,
    empirical_k_for_target,
    median_raters_to_publish,
    sweep_rater_fraction,
)
import helpers
from helpers import random_graph, random_state

TOL = SolverConfig().tolerance
TIGHT = SolverConfig(tolerance=1e-12)


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {num:02d} FAIL  {text}"
        helpers.ACCEPTANCE_REPORT.append(line)
        print(line)
        raise
    line = f"ACCEPTANCE {num:02d} PASS  {text}"
    helpers.ACCEPTANCE_REPORT.append(line)
    print(line)


def _oracle_instances(seed, count=50):
    rng = np.random.default_rng(seed)
    alphas = [0.5, 0.7, 1.0]
    for idx in range(count):
        n = int(rng.integers(20, 501))
        lam = float(rng.uniform(2, 20))
        g = random_graph(rng, n=n, lam=lam, trust=(0.1, 0.8))
        state = random_state(rng, n, k=(0.05, 0.3), alpha=alphas[idx % 3])
        yield g, state


def test_c01_oracle_equivalence():
    with criterion(1, "sweep solver matches the dense linear solve to 1e-8"):
        for g, state in _oracle_instances(1001):
            it = solve_iterative(g, state)
            dn = solve_dense_oracle(g, state)
            assert it.converged
            assert np.max(np.abs(it.scores - dn.scores)) <= 1e-8


def test_c02_uniqueness_warm_start():
    with criterion(2, "zero start and all-ones warm start agree to 10*tolerance"):
        for g, state in _oracle_instances(1002):
            cold = solve_iterative(g, state)
            warm = solve_iterative(g, state, warm=np.ones(g.n_nodes))
            assert np.max(np.abs(cold.scores - warm.scores)) <= 10 * TOL


def _property_cases(seed, count=200, n_range=(8, 36), lam_range=(1.0, 6.0)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = random_graph(rng, n_range=n_range, lam_range=lam_range, trust=(0.05, 0.95))
        state = random_state(rng, g.n_nodes, k=(0.05, 0.4))
        yield rng, g, state


def test_c03_property_suite():
    cases = 200
    with criterion(3, f"bounded scores on {cases} random instances"):
        for _, g, state in _property_cases(31):
            s = solve_iterative(g, state).scores
            assert s.min() >= 0.0 and s.max() <= 1.0

    with criterion(3, f"conservativeness band on {cases} random instances"):
        for _, g, state in _property_cases(32):
            s = solve_iterative(g, state).scores
            rater = state.rater_mask(g.n_nodes)
            for i in range(g.n_nodes):
                if rater[i] or s[i] <= 0.0:
                    continue
                nbrs, trusts = g.out_neighbors(i)
                if nbrs.size == 0:
                    continue
                vals = trusts * s[nbrs]
                assert vals.min() - 1e-9 <= s[i] <= vals.max() + 1e-9

    with criterion(3, f"no-trust-path scores are exactly zero on {cases} instances"):
        for _, g, state in _property_cases(33):
            s = solve_iterative(g, state).scores
            mask = reachability_mask(g, np.flatnonzero(state.rater_mask(g.n_nodes)))
            assert np.all(s[~mask] == 0.0)

    with criterion(3, f"deleting a rater-rater edge changes nothing on {cases} instances"):
        for rng, g, state in _property_cases(34):
            if len(state.ratings) < 2:
                state.add_rater(int(np.flatnonzero(~state.rater_mask(g.n_nodes))[0]), 0.5)
            raters = np.flatnonzero(state.rater_mask(g.n_nodes))
            i, j = int(raters[0]), int(raters[1])
            src, dst, tr = g.edge_arrays()
            edges = list(zip(src.tolist(), dst.tolist(), tr.tolist()))
            if g.edge_trust(i, j) is None:
                edges.append((i, j, float(rng.uniform(0.1, 1.0))))
            g_with = build_graph(g.n_nodes, edges)
            g_without = build_graph(g.n_nodes, [e for e in edges if (e[0], e[1]) != (i, j)])
            assert np.array_equal(
                solve_iterative(g_with, state).scores,
                solve_iterative(g_without, state).scores,
            )

    with criterion(3, f"deleting a disconnected component changes nothing on {cases} instances"):
        rng = np.random.default_rng(35)
        for _ in range(cases):
            ga = random_graph(rng, n_range=(6, 20), lam_range=(1, 4))
            gb = random_graph(rng, n_range=(6, 20), lam_range=(1, 4))
            na = ga.n_nodes
            sa, da, ta = ga.edge_arrays()
            sb, db, tb = gb.edge_arrays()
            edges = list(zip(sa.tolist(), da.tolist(), ta.tolist()))
            edges += [(int(s) + na, int(d) + na, float(t)) for s, d, t in zip(sb, db, tb)]
            g_union = build_graph(na + gb.n_nodes, edges)
            st_a = random_state(rng, na, k=(0.1, 0.3))
            st_b = random_state(rng, gb.n_nodes, k=(0.1, 0.3))
            merged = dict(st_a.ratings)
            merged.update({n + na: r for n, r in st_b.ratings.items()})
            thresholds = np.concatenate([st_a.thresholds, st_b.thresholds])
            union_scores = solve_iterative(
                g_union, SessionState(merged, thresholds, 0.5)
            ).scores
            alone = solve_iterative(ga, st_a).scores
            assert np.max(np.abs(union_scores[:na] - alone)) <= 10 * TOL

    with criterion(3, f"rater order is irrelevant on {cases} instances"):
        rng = np.random.default_rng(36)
        for _ in range(cases):
            g = random_graph(rng, n_range=(8, 36), lam_range=(1, 6))
            state = random_state(rng, g.n_nodes, k=(0.1, 0.4), min_raters=2)
            items = list(state.ratings.items())
            perm = list(items)
            rng.shuffle(perm)
            a = solve_iterative(g, SessionState(dict(items), state.thresholds, 0.5))
            b = solve_iterative(g, SessionState(dict(perm), state.thresholds, 0.5))
            assert np.array_equal(a.scores, b.scores)

    with criterion(3, f"complete-graph single-rater reduction exact to 1e-12, {cases} instances"):
        rng = np.random.default_rng(37)
        for _ in range(cases):
            n = int(rng.integers(3, 25))
            edges = [
                (i, j, float(rng.uniform(0.05, 1.0)))
                for i in range(n)
                for j in range(n)
                if i != j
            ]
            g = build_graph(n, edges)
            rater = int(rng.integers(n))
            rating = float(rng.uniform(0.05, 1.0))
            s = solve_iterative(g, SessionState({rater: rating}, np.zeros(n), 1.0)).scores
            for i in range(n):
                expect = rating if i == rater else g.edge_trust(i, rater) * rating
                assert abs(s[i] - expect) <= 1e-12


def test_c04_alpha_monotonicity():
    with criterion(4, "alpha=0.7 scores dominate alpha=0.5 under a common rating, 100 instances"):
        rng = np.random.default_rng(41)
        for _ in range(100):
            t = float(rng.uniform(0.2, 1.0))
            g = random_graph(rng, n_range=(10, 60), lam_range=(1, 8), trust=t)
            state = random_state(
                rng, g.n_nodes, k=(0.05, 0.4), common_rating=float(rng.uniform(0.1, 1.0))
            )
            lo = solve_iterative(g, state).scores
            hi = solve_iterative(
                g, SessionState(dict(state.ratings), state.thresholds, 0.7)
            ).scores
            assert np.all(hi >= lo - 1e-8)


def test_c05_progressive_sessions():
    with criterion(5, "promotions at the common rating never lower a score, 100 sessions"):
        rng = np.random.default_rng(51)
        for _ in range(100):
            g = random_graph(rng, n_range=(15, 50), lam_range=(1, 6))
            rating = float(rng.uniform(0.3, 1.0))
            state = SessionState({}, rng.uniform(0, 1, g.n_nodes), 0.5)
            prev = solve_iterative(g, state).scores
            order = rng.permutation(g.n_nodes)[:6]
            for node in order:
                # common rating always sits at or above every current score
                state.add_rater(int(node), rating)
                cur = solve_iterative(g, state).scores
                assert np.all(cur >= prev - 1e-8)
                prev = cur


def test_c06_delta_fast_path():
    with criterion(6, "influence fast path reproduces re-solve greedy for 5 steps, 50 instances"):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(20, 101))
            g = random_graph(rng, n=n, lam=float(rng.uniform(2, 10)), trust=(0.1, 0.8))
            state = SessionState({}, rng.uniform(0.1, 0.9, n), 0.5)
            sv = solve_iterative(g, state, TIGHT)
            dm = delta_init(g, state, TIGHT)
            for _step in range(5):
                slow = select_marginal_greedy(g, state, 1.0, TIGHT)
                fast = marginal_greedy_fast(g, state, sv, dm, 1.0)
                assert fast == slow
                dm = delta_promote(dm, fast)
                state.add_rater(fast, 1.0)
                ref = delta_init(g, state, TIGHT)
                assert np.max(np.abs(dm.delta - ref.delta)) <= 1e-8
                sv = solve_iterative(g, state, TIGHT)


def test_c07_mean_field_prediction():
    with criterion(7, "pooled Monte Carlo mean is within 5% of the closed form"):
        p = ModelParams(mean_degree=20.0, trust=0.5, rating=1.0, threshold=0.3)
        spec = ErdosRenyiSpec(2000, 20 / 2000, ConstantTrust(0.5), 7)
        table = empirical_satisfaction_cdf(spec, 0.2, p.rating, 20, rng=np.random.default_rng(7))
        predicted = expected_satisfaction(p, 0.2)
        assert predicted == pytest.approx(1 / 6, rel=1e-6)
        assert abs(table.sample_mean - predicted) / predicted <= 0.05


def test_c08_bounds_bracket_measured_k():
    with criterion(8, "bisected empirical rater fraction lies inside [k_min, k_max]"):
        p = ModelParams(mean_degree=20.0, trust=0.8, rating=1.0, threshold=0.2)
        k_lo = k_min_for_target(p, 0.5)
        k_hi = k_max_for_target(p, 0.5)
        assert k_lo == pytest.approx(0.1 * 0.2 / (0.8 * 0.9), rel=1e-6)
        assert k_hi == pytest.approx(0.375, rel=1e-6)
        (k_hat,) = empirical_k_for_target(
            2000, 20 / 2000, ConstantTrust(0.8), 0.2, 1.0, [0.5], seeds=range(20)
        )
        assert k_lo <= k_hat <= k_hi


def test_c09_unsatisfied_curves_monotone_and_ordered():
    with criterion(9, "unsatisfied-vs-k curves fall with k and rise with the threshold"):
        k_grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4]
        curves = {}
        for b in (0.2, 0.3, 0.4):
            rows = sweep_rater_fraction(
                2000, 50 / 2000, UniformTrust(), b, 1.0, k_grid, seeds=range(10)
            )
            means = [r.mean for r in rows]
            assert all(later <= earlier + 1e-12 for earlier, later in zip(means, means[1:]))
            curves[b] = means
        for lo, hi in ((0.2, 0.3), (0.3, 0.4)):
            assert all(h >= l - 1e-12 for l, h in zip(curves[lo], curves[hi]))


def test_c10_strategy_race():
    with criterion(10, "median raters to publish: marginal <= trust <= random, trust >= 1.5x marginal"):
        runs = compare_strategies(
            2000, 10 / 2000, UniformTrust(), 0.2, 1.0, seeds=range(10)
        )
        assert all(r.log.status == "published" for r in runs)
        med = median_raters_to_publish(runs)
        assert med["marginal"] <= med["trust"] <= med["random"]
        assert med["trust"] >= 1.5 * med["marginal"]


def test_c11_greedy_never_beats_exhaustive():
    with criterion(11, "greedy satisfied count never exceeds the exhaustive optimum, 30 instances"):
        rng = np.random.default_rng(111)
        for _ in range(30):
            n = int(rng.integers(8, 14))
            g = random_graph(rng, n=n, lam=float(rng.uniform(1.5, 3.0)))
            thresholds = rng.uniform(0.05, 0.6, n)
            budget = int(rng.integers(2, 4))
            base = SessionState({}, thresholds, 0.5)
            greedy_state = base.copy()
            for _pick in range(budget):
                node = select_marginal_greedy(g, greedy_state, 1.0, TIGHT)
                greedy_state.add_rater(node, 1.0)
            greedy_count, _ = satisfied_count(
                solve_iterative(g, greedy_state, TIGHT), thresholds
            )
            best = select_optimal_exhaustive(g, base, budget, 1.0, TIGHT)
            best_state = base.copy()
            for node in best:
                best_state.add_rater(node, 1.0)
            best_count, _ = satisfied_count(
                solve_iterative(g, best_state, TIGHT), thresholds
            )
            assert greedy_count <= best_count


def test_c12_trust_update_contract():
    with criterion(12, "trust update: agreement boundary, range, monotonicity, score invariance"):
        rng = np.random.default_rng(121)
        for _ in range(50):
            cfg = TrustUpdateConfig(
                gamma=float(rng.uniform(0, 1)), sharpness=float(rng.uniform(0.5, 40))
            )
            t_old = float(rng.uniform(0, 1))
            r = float(rng.uniform(0, 1))
            assert trust_update(t_old, r, r, cfg) == pytest.approx(
                cfg.gamma * t_old + (1 - cfg.gamma), abs=1e-15
            )
            prev = None
            for gap in np.linspace(0, 1, 11):
                val = trust_update(t_old, 0.0, float(gap), cfg)
                assert 0.0 <= val <= 1.0
                if prev is not None and cfg.gamma < 1.0:
                    assert val <= prev
                prev = val
        for _ in range(20):
            g = random_graph(rng, n_range=(15, 50))
            state = random_state(rng, g.n_nodes, k=(0.15, 0.4), min_raters=2)
            before = solve_iterative(g, state).scores
            cfg = TrustUpdateConfig(0.4, 9.0)
            g2 = apply_rater_trust_updates(g, state, cfg)
            after = solve_iterative(g2, state).scores
            assert np.max(np.abs(after - before)) <= 1e-12


def test_c13_generator_degree_law():
    with criterion(13, "out-degree chi-square vs the sparse-limit law at the 1% level"):
        n, lam = 5000, 10.0
        g = generate_erdos_renyi(ErdosRenyiSpec(n, lam / n, ConstantTrust(0.5), 0))
        degrees = g.out_degrees()
        upper = int(degrees.max()) + 1
        probs = scipy.stats.poisson.pmf(np.arange(upper), lam)
        expected = probs * n
        observed = np.bincount(degrees, minlength=upper).astype(float)
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], n - expected[keep].sum())
        assert scipy.stats.chisquare(obs, exp).pvalue > 0.01
        n_pairs = n * (n - 1)
        mean = n_pairs * lam / n
        sigma = np.sqrt(n_pairs * (lam / n) * (1 - lam / n))
        assert abs(g.n_edges - mean) <= 4 * sigma
