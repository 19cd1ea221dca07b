import inspect
import io
import weakref

import numpy as np
import pytest

from trustsat import (
    ConstantTrust,
    ErdosRenyiSpec,
    NotConverged,
    SolverConfig,
    UniformTrust,
    ValidationError,
)
from trustsat import experiments
from trustsat.experiments import (
    compare_strategies,
    empirical_k_for_target,
    empirical_satisfaction_cdf,
    median_raters_to_publish,
    sweep_edge_prob,
    sweep_rater_fraction,
    truncated_normal_thresholds,
)
from trustsat.analytics import ModelParams, k_max_for_target, k_min_for_target
from trustsat.graph import TrustGraph, write_csv
from helpers import count_sweep_layouts


def test_sweep_k_monotone_and_endpoints():
    rows = sweep_rater_fraction(
        300, 8 / 300, UniformTrust(), 0.2, 1.0, [0.0, 0.05, 0.1, 0.2, 0.4], seeds=range(4)
    )
    means = [r.mean for r in rows]
    assert means[0] == 1.0  # nobody rated, nobody satisfied
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


def test_sweep_k_threshold_ordering():
    # same seeds, same graphs: higher thresholds dominate pointwise
    kwargs = dict(
        n_nodes=300,
        edge_prob=25 / 300,
        trust_dist=UniformTrust(),
        rating=1.0,
        k_grid=[0.05, 0.1, 0.2, 0.3],
        seeds=range(4),
    )
    low = sweep_rater_fraction(thresholds=0.2, **kwargs)
    high = sweep_rater_fraction(thresholds=0.3, **kwargs)
    for lo_row, hi_row in zip(low, high):
        assert hi_row.mean >= lo_row.mean - 1e-12


def test_sweep_k_grid_validation():
    with pytest.raises(ValidationError):
        sweep_rater_fraction(50, 0.1, UniformTrust(), 0.2, 1.0, [0.2, 0.1], seeds=[1])
    with pytest.raises(ValidationError):
        sweep_rater_fraction(50, 0.1, UniformTrust(), 0.2, 1.0, [0.1], seeds=[])
    with pytest.raises(ValidationError, match="non-negative"):
        sweep_rater_fraction(50, 0.1, UniformTrust(), 0.2, 1.0, [0.1], seeds=[0, -1])
    # a negative k would slice raters from the end of the permutation, and
    # k > 1 would make every node a rater
    for grid in ([-0.1, 0.05, 1.5], [-0.1, 0.05], [0.05, 1.5]):
        with pytest.raises(ValidationError, match=r"rater fraction must lie in \[0, 1\]"):
            sweep_rater_fraction(50, 0.1, UniformTrust(), 0.2, 1.0, grid, seeds=[1])


def test_sweep_p_dip_then_rise_at_low_rater_fraction():
    n = 800
    grid = [2 / n, 5 / n, 10 / n, 25 / n, 50 / n, 100 / n]
    rows = sweep_edge_prob(n, grid, UniformTrust(), 0.2, 1.0, 0.07, seeds=range(6))
    means = [r.mean for r in rows]
    assert min(means) < means[-1] - 0.05  # dip below the dense-graph plateau
    assert means[-1] > means[0]  # and the plateau exceeds the sparse start


def test_sweep_p_flat_near_zero_at_ample_rater_fraction():
    n = 800
    grid = [25 / n, 50 / n, 100 / n]
    rows = sweep_edge_prob(n, grid, UniformTrust(), 0.2, 1.0, 0.2, seeds=range(6))
    assert all(r.mean < 0.1 for r in rows)


@pytest.mark.parametrize("k", [-0.2, 1.2])
def test_sweep_p_rejects_rater_fraction_outside_unit_interval(k):
    with pytest.raises(ValidationError, match=r"rater fraction must lie in \[0, 1\]"):
        sweep_edge_prob(100, [0.05], UniformTrust(), 0.2, 1.0, k, seeds=[0])


def test_unconverged_solve_fails_loud():
    one_sweep = SolverConfig(max_iterations=1)
    with pytest.raises(NotConverged):
        sweep_rater_fraction(200, 8 / 200, UniformTrust(), 0.2, 1.0, [0.1], [0], one_sweep)
    with pytest.raises(NotConverged):
        sweep_edge_prob(200, [8 / 200], UniformTrust(), 0.2, 1.0, 0.1, [0], one_sweep)
    with pytest.raises(NotConverged):
        empirical_k_for_target(200, 8 / 200, ConstantTrust(0.8), 0.2, 1.0, [0.5], [0], one_sweep)
    spec = ErdosRenyiSpec(200, 8 / 200, ConstantTrust(0.5), 3)
    with pytest.raises(NotConverged):
        empirical_satisfaction_cdf(spec, 0.2, 1.0, 2, one_sweep)


def test_compare_strategies_orders_medians():
    runs = compare_strategies(
        250, 10 / 250, UniformTrust(), 0.2, 1.0, seeds=range(4)
    )
    assert all(r.log.status == "published" for r in runs)
    med = median_raters_to_publish(runs)
    assert med["marginal"] <= med["trust"] <= med["random"]


def test_compare_greedy_gap_shrinks_with_density():
    gaps = {}
    for d in (10, 50):
        runs = compare_strategies(
            250, d / 250, UniformTrust(), 0.2, 1.0, seeds=range(6),
            strategies=("trust", "marginal"),
        )
        med = median_raters_to_publish(runs)
        gaps[d] = (med["trust"] - med["marginal"]) / med["marginal"]
    assert gaps[50] < gaps[10]


class _TrackedGraph(TrustGraph):
    __slots__ = ("__weakref__",)


def _probe_draws(monkeypatch):
    """Replace ``experiments._draw_graph`` with a probe. Returns the list
    it appends to at each draw: how many earlier graphs are still alive."""
    real = experiments._draw_graph
    alive_at_draw = []
    refs = []

    def probe(*args):
        alive_at_draw.append(sum(ref() is not None for ref in refs))
        g = real(*args)
        tracked = _TrackedGraph(*(getattr(g, name) for name in inspect.signature(TrustGraph).parameters))
        refs.append(weakref.ref(tracked))
        return tracked

    monkeypatch.setattr(experiments, "_draw_graph", probe)
    return alive_at_draw


@pytest.mark.parametrize("driver", [
    lambda: sweep_rater_fraction(200, 8 / 200, UniformTrust(), 0.2, 1.0, [0.1, 0.3], seeds=range(3)),
    lambda: sweep_edge_prob(200, [4 / 200, 8 / 200], UniformTrust(), 0.2, 1.0, 0.1, seeds=range(2)),
    lambda: empirical_satisfaction_cdf(ErdosRenyiSpec(200, 8 / 200, ConstantTrust(0.5), 3), 0.2, 1.0, 3),
    lambda: compare_strategies(200, 8 / 200, UniformTrust(), 0.2, 1.0, seeds=range(4)),
], ids=["sweep-k", "sweep-p", "cdf", "compare"])
def test_sweeps_hold_one_graph_at_a_time(monkeypatch, driver):
    alive_at_draw = _probe_draws(monkeypatch)
    driver()
    assert len(alive_at_draw) >= 3
    assert alive_at_draw == [0] * len(alive_at_draw)


def test_compare_builds_one_sweep_layout_per_seed_graph(monkeypatch):
    built = count_sweep_layouts(monkeypatch)
    runs = compare_strategies(200, 8 / 200, UniformTrust(), 0.2, 1.0, seeds=range(2))
    assert len(runs) == 2 * len(experiments.STRATEGY_KINDS)
    assert len(built) == 2


def test_compare_rejects_unknown_strategy_before_any_session(monkeypatch):
    draws = _probe_draws(monkeypatch)
    with pytest.raises(ValidationError, match="bogus"):
        compare_strategies(100, 8 / 100, UniformTrust(), 0.2, 1.0, seeds=[0], strategies=["random", "bogus"])
    assert draws == []


def test_compare_iterator_of_strategies_serves_every_seed():
    runs = compare_strategies(60, 6 / 60, UniformTrust(), 0.2, 1.0, seeds=range(3), strategies=iter(["trust"]))
    assert [(r.strategy, r.seed) for r in runs] == [("trust", 0), ("trust", 1), ("trust", 2)]


def test_compare_single_node_graph():
    runs = compare_strategies(1, 0.0, UniformTrust(), 0.2, 1.0, seeds=[0])
    assert all(r.log.status == "published" and r.log.raters_used() == 1 for r in runs)


def test_empirical_k_bisection_brackets():
    p = ModelParams(mean_degree=10.0, trust=0.8, rating=1.0, threshold=0.2)
    (k_hat,) = empirical_k_for_target(
        500, 10 / 500, ConstantTrust(0.8), 0.2, 1.0, [0.5], seeds=range(5), k_resolution=0.01
    )
    assert k_min_for_target(p, 0.5) <= k_hat <= k_max_for_target(p, 0.5)


def test_empirical_k_targets_match_single_target_calls():
    def k_hat(shares):
        return empirical_k_for_target(300, 8 / 300, ConstantTrust(0.8), 0.2, 1.0, shares, seeds=range(3),
                                      k_resolution=0.01)

    shares = [0.3, 0.5, 0.7]
    assert k_hat(shares) == [k_hat([s])[0] for s in shares]


def test_empirical_k_solves_each_rater_count_once(monkeypatch):
    # 27 probes of 3 bisections round to 13 distinct rater counts
    real = experiments.solve_iterative
    calls = []
    monkeypatch.setattr(experiments, "solve_iterative", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    k_hat = empirical_k_for_target(400, 20 / 400, ConstantTrust(0.8), 0.2, 1.0, [0.3, 0.5, 0.7], seeds=[0, 1, 2])
    assert k_hat == [0.05859375, 0.06640625, 0.0703125]
    assert len(calls) == 13 * 3


def test_cdf_rejects_all_raters_before_drawing(monkeypatch):
    draws = _probe_draws(monkeypatch)
    with pytest.raises(ValidationError, match="leaves no non-rater scores"):
        empirical_satisfaction_cdf(ErdosRenyiSpec(50, 0.1, ConstantTrust(0.5), 1), 1.0, 1.0, 3)
    assert draws == []


def test_truncated_normal_threshold_moments():
    rng = np.random.default_rng(10)
    b, mean, var = truncated_normal_thresholds(20000, rng)
    assert b.min() >= 0.0 and b.max() <= 1.0
    assert abs(mean - 0.25) <= 0.01
    assert var > 0.02  # wide draw, not degenerate


def test_truncated_normal_threshold_tiny_variance():
    # the bisection probes locations where the truncation normalizer
    # underflows to zero
    b, mean, var = truncated_normal_thresholds(50, np.random.default_rng(3), 0.25, 1e-6)
    assert b.min() >= 0.0 and b.max() <= 1.0
    assert abs(mean - 0.25) <= 1e-3
    assert 0.0 < var < 1e-5


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)], {"n": 2, "note": "x"}, ["status=done"])
    text = path.read_text().splitlines()
    assert text[0] == "# n = 2"
    assert text[1] == "# note = x"
    assert text[2] == "a,b"
    assert text[3] == "1,0.5"
    assert text[5] == "# status=done"
    # a stream gets the same bytes and is left open
    stream = io.StringIO()
    write_csv(stream, ["a", "b"], [(1, 0.5), (2, 0.25)], {"n": 2, "note": "x"}, ["status=done"])
    assert stream.getvalue() == path.read_text()
