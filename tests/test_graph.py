import numpy as np
import pytest
import scipy.stats

from trustsat import (
    ConstantTrust,
    DuplicateEdge,
    ErdosRenyiSpec,
    NodeOutOfRange,
    ParseError,
    SelfLoop,
    TrustOutOfRange,
    UniformTrust,
    ValidationError,
    build_graph,
    generate_erdos_renyi,
    load_graph,
    load_thresholds,
    mean_out_degree,
    save_graph,
    save_thresholds,
)
from trustsat.graph import validate_thresholds


def test_build_basic_degrees():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.6)])
    assert g.out_degrees().tolist() == [1, 1, 0]
    assert g.n_edges == 2
    assert g.edge_trust(0, 1) == 0.5
    assert g.edge_trust(1, 0) is None


def test_build_rejects_zero_trust():
    with pytest.raises(TrustOutOfRange):
        build_graph(2, [(0, 1, 0.0)])
    with pytest.raises(TrustOutOfRange):
        build_graph(2, [(0, 1, 1.2)])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0, 0.5)])


def test_build_rejects_duplicates_and_bad_nodes():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1, 0.5), (0, 1, 0.7)])
    with pytest.raises(NodeOutOfRange):
        build_graph(2, [(0, 2, 0.5)])


def test_transpose_consistency():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = generate_erdos_renyi(
            ErdosRenyiSpec(n, float(rng.uniform(0, 0.5)), UniformTrust(), int(rng.integers(2**32)))
        )
        src, dst, _ = g.edge_arrays()
        fwd = {(int(s), int(d)) for s, d in zip(src, dst)}
        bwd = set()
        for v in range(n):
            s_, e_ = g.in_indptr[v], g.in_indptr[v + 1]
            bwd.update((int(u), v) for u in g.in_indices[s_:e_])
        assert fwd == bwd


def test_generate_p_zero_and_one():
    g0 = generate_erdos_renyi(ErdosRenyiSpec(100, 0.0, UniformTrust(), 7))
    assert g0.n_edges == 0
    g1 = generate_erdos_renyi(ErdosRenyiSpec(50, 1.0, ConstantTrust(0.5), 1))
    assert g1.n_edges == 50 * 49
    assert np.all(g1.out_trust == 0.5)
    assert mean_out_degree(g1) == 49


def test_generate_edge_count_within_4_sigma():
    n, p = 10000, 50 / 10000
    g = generate_erdos_renyi(ErdosRenyiSpec(n, p, UniformTrust(), 3))
    mean = n * (n - 1) * p
    sigma = np.sqrt(n * (n - 1) * p * (1 - p))
    assert abs(g.n_edges - mean) <= 4 * sigma
    assert abs(mean_out_degree(g) - 50) <= 4 * sigma / n


def test_generate_trust_in_open_unit_interval():
    g = generate_erdos_renyi(ErdosRenyiSpec(500, 0.02, UniformTrust(0.0, 1.0), 11))
    assert g.n_edges > 0
    assert g.out_trust.min() > 0.0
    assert g.out_trust.max() <= 1.0


def test_generate_deterministic():
    spec = ErdosRenyiSpec(300, 0.03, UniformTrust(), 42)
    a, b = generate_erdos_renyi(spec), generate_erdos_renyi(spec)
    assert a == b
    assert np.array_equal(a.out_trust, b.out_trust)


def test_mean_out_degree_empty():
    assert mean_out_degree(build_graph(5, [])) == 0


def test_degree_histogram_matches_binomial():
    # pooled out-degrees over seeds vs Binomial(n-1, p) by chi-square
    n, p = 400, 0.02
    degrees = np.concatenate(
        [
            generate_erdos_renyi(ErdosRenyiSpec(n, p, ConstantTrust(0.5), seed)).out_degrees()
            for seed in range(25)
        ]
    )
    upper = int(degrees.max()) + 1
    probs = scipy.stats.binom.pmf(np.arange(upper), n - 1, p)
    expected = probs * degrees.size
    observed = np.bincount(degrees, minlength=upper).astype(float)
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], degrees.size - expected[keep].sum())
    stat = scipy.stats.chisquare(obs, exp)
    assert stat.pvalue > 0.01


def test_degree_histogram_matches_poisson_buckets():
    # sparse regime: every bucket with expected count >= 20 within 3 sigma
    n, lam = 3000, 8.0
    g = generate_erdos_renyi(ErdosRenyiSpec(n, lam / n, UniformTrust(), 123))
    degrees = g.out_degrees()
    observed = np.bincount(degrees, minlength=40)
    for d in range(40):
        q = scipy.stats.poisson.pmf(d, lam)
        expected = n * q
        if expected < 20:
            continue
        sigma = np.sqrt(n * q * (1 - q))
        assert abs(observed[d] - expected) <= 3 * sigma, f"degree bucket {d}"


def test_graph_roundtrip(tmp_path):
    g = generate_erdos_renyi(ErdosRenyiSpec(80, 0.05, UniformTrust(), 9))
    path = tmp_path / "g.csv"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g == g2


def test_load_graph_small(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("# comment\nnodes,2\n0,1,0.5\n")
    g = load_graph(path)
    assert g.n_nodes == 2 and g.n_edges == 1


def test_load_graph_malformed_trust(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nodes,2\n0,1,x\n")
    with pytest.raises(ParseError) as exc:
        load_graph(path)
    assert exc.value.line == 2


def test_load_graph_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0.5\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_thresholds_roundtrip(tmp_path):
    b = np.random.default_rng(0).uniform(0, 1, 30)
    path = tmp_path / "b.csv"
    save_thresholds(b, path)
    assert np.array_equal(load_thresholds(path), b)


def test_thresholds_missing_node(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("nodes,3\n0,0.5\n1,0.5\n")
    with pytest.raises(ParseError):
        load_thresholds(path)


def test_validate_thresholds_range():
    with pytest.raises(ValidationError):
        validate_thresholds(np.array([0.5, 1.5]), 2)
    with pytest.raises(ValidationError):
        validate_thresholds(np.array([0.5]), 2)


def test_validate_thresholds_rejects_nan():
    with pytest.raises(ValidationError):
        validate_thresholds([np.nan, 0.2], 2)


def test_spec_validation():
    with pytest.raises(ValidationError):
        ErdosRenyiSpec(10, 1.5, UniformTrust(), 0)
    with pytest.raises(ValidationError):
        ConstantTrust(0.0)
    with pytest.raises(ValidationError):
        UniformTrust(0.5, 0.2)
