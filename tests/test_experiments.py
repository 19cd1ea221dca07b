import io

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
from trustsat.experiments import (
    bounds_table,
    compare_strategies,
    empirical_k_for_target,
    empirical_satisfaction_cdf,
    median_raters_to_publish,
    sweep_edge_prob,
    sweep_rater_fraction,
    truncated_normal_thresholds,
)
from trustsat.analytics import ModelParams
from trustsat.graph import write_csv


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
        empirical_k_for_target(200, 8 / 200, ConstantTrust(0.8), 0.2, 1.0, 0.5, [0], one_sweep)
    spec = ErdosRenyiSpec(200, 8 / 200, ConstantTrust(0.5), 3)
    p = ModelParams(mean_degree=8.0, trust=0.5, rating=1.0, rater_fraction=0.2, threshold=0.2)
    with pytest.raises(NotConverged):
        empirical_satisfaction_cdf(spec, p, 2, one_sweep)


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


def test_compare_single_node_graph():
    runs = compare_strategies(1, 0.0, UniformTrust(), 0.2, 1.0, seeds=[0])
    assert all(r.log.status == "published" and r.log.raters_used() == 1 for r in runs)


def test_empirical_k_bisection_brackets():
    p = ModelParams(mean_degree=10.0, trust=0.8, rating=1.0, rater_fraction=0.0, threshold=0.2)
    k_hat = empirical_k_for_target(
        500, 10 / 500, ConstantTrust(0.8), 0.2, 1.0, 0.5, seeds=range(5), k_resolution=0.01
    )
    rows = bounds_table(p, [0.5], lambda s: k_hat)
    row = rows[0]
    assert row.k_min <= row.k_hat <= row.k_max
    assert row.k_hat == k_hat


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
