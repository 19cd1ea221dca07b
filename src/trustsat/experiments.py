"""Batch experiments: parameter sweeps, strategy races, bound checks, and
the Monte Carlo score distribution.

These back the CLI and reproduce the reference simulation protocol at desk
scale: directed G(n, D/n) graphs, per-edge uniform or constant trust,
constant rating 1, equal rater/non-rater weight, and mean curves over seeds.

Each seed's graph and rater permutation are drawn once, and the sweeps and
the strategy race hold one graph at a time: they release a seed's graph
before they draw the next.
Within one seed, rater sets for different fractions k are nested prefixes of
a single random permutation. Raising k then only ever adds raters rating at
least as high as any current score, so per-seed unsatisfied curves are
monotone by construction rather than only in expectation.

Every solve here raises NotConverged when it runs out of iterations, so an
unconverged score vector never enters a mean, a bisection or a CDF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .editing import EditingConfig, SessionLog, run_session
from .errors import ValidationError
from .graph import ErdosRenyiSpec, TrustDist, TrustGraph, generate_erdos_renyi
from .satisfaction import (SatisfactionVector, SessionState, SolverConfig, require_converged, satisfied_count,
                           solve_iterative)
from .selection import STRATEGY_KINDS


def check_grid(grid: Sequence[float], name: str) -> np.ndarray:
    """The grid as a float array. Raises ValidationError unless it is
    nonempty and strictly increasing."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} grid must be nonempty")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValidationError(f"{name} grid must be strictly increasing")
    return arr


def _check_seeds(seeds: Sequence[int]) -> List[int]:
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValidationError("seeds must be nonempty")
    if min(seeds) < 0:
        raise ValidationError(f"seeds must be non-negative, got {min(seeds)}")
    return seeds


def rater_count(fraction: float, n_nodes: int) -> int:
    """Number of raters, round(fraction * n_nodes), for a rater fraction in
    [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"rater fraction must lie in [0, 1], got {fraction}")
    return int(round(fraction * n_nodes))


def _threshold_vector(thresholds: np.ndarray | float, n_nodes: int) -> np.ndarray:
    if np.isscalar(thresholds):
        return np.full(n_nodes, float(thresholds))
    return thresholds


def _spawn(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _draw_graph(rng: np.random.Generator, n_nodes: int, edge_prob: float, trust_dist: TrustDist) -> TrustGraph:
    """G(n, p) generated from the next seed drawn from ``rng``."""
    return generate_erdos_renyi(
        ErdosRenyiSpec(n_nodes, edge_prob, trust_dist, int(rng.integers(2**63 - 1)))
    )


def _solve_raters(g: TrustGraph, raters: np.ndarray, rating: float, thresholds: Optional[np.ndarray],
                  cfg: Optional[SolverConfig], alpha: float = 0.5) -> SatisfactionVector:
    """Scores when every node of ``raters`` rates ``rating``. Raises
    NotConverged when the solve runs out of iterations."""
    state = SessionState(dict.fromkeys(raters.tolist(), rating), thresholds, alpha)
    sv = solve_iterative(g, state, cfg)
    return require_converged(sv, f"solve with {len(raters)} raters on {g.n_nodes} nodes")


@dataclass
class SweepRow:
    value: float
    mean: float
    stderr: float


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, stderr


def sweep_rater_fraction(
    n_nodes: int,
    edge_prob: float,
    trust_dist: TrustDist,
    thresholds: np.ndarray | float,
    rating: float,
    k_grid: Sequence[float],
    seeds: Sequence[int],
    cfg: Optional[SolverConfig] = None,
    alpha: float = 0.5,
) -> List[SweepRow]:
    """Unsatisfied fraction (over all users) vs rater fraction, one graph
    per seed reused across the grid with nested rater prefixes."""
    k_grid = check_grid(k_grid, "k")
    counts = [rater_count(k, n_nodes) for k in k_grid]
    seeds = _check_seeds(seeds)
    thresholds = _threshold_vector(thresholds, n_nodes)
    results = np.empty((len(seeds), k_grid.size))
    for si, seed in enumerate(seeds):
        graph_rng, perm_rng = _spawn(seed, 2)
        g = _draw_graph(graph_rng, n_nodes, edge_prob, trust_dist)
        perm = perm_rng.permutation(n_nodes)
        for ki, n_r in enumerate(counts):
            sv = _solve_raters(g, perm[:n_r], rating, thresholds, cfg, alpha)
            results[si, ki] = 1.0 - satisfied_count(sv, thresholds)[0] / n_nodes
        del g  # released before the next seed's graph is built
    return [
        SweepRow(float(k), *_mean_stderr(results[:, ki])) for ki, k in enumerate(k_grid)
    ]


def sweep_edge_prob(
    n_nodes: int,
    p_grid: Sequence[float],
    trust_dist: TrustDist,
    thresholds: np.ndarray | float,
    rating: float,
    rater_fraction: float,
    seeds: Sequence[int],
    cfg: Optional[SolverConfig] = None,
    alpha: float = 0.5,
) -> List[SweepRow]:
    """Unsatisfied fraction vs edge probability at a fixed rater fraction."""
    p_grid = check_grid(p_grid, "p")
    n_r = rater_count(rater_fraction, n_nodes)
    seeds = _check_seeds(seeds)
    thresholds = _threshold_vector(thresholds, n_nodes)
    results = np.empty((len(seeds), p_grid.size))
    for si, seed in enumerate(seeds):
        graph_rng, perm_rng = _spawn(seed, 2)
        raters = perm_rng.permutation(n_nodes)[:n_r]
        for pi, p in enumerate(p_grid):
            sv = _solve_raters(_draw_graph(graph_rng, n_nodes, float(p), trust_dist), raters, rating, thresholds,
                               cfg, alpha)
            results[si, pi] = 1.0 - satisfied_count(sv, thresholds)[0] / n_nodes
    return [
        SweepRow(float(p), *_mean_stderr(results[:, pi])) for pi, p in enumerate(p_grid)
    ]


@dataclass
class StrategyRun:
    strategy: str
    seed: int
    log: SessionLog


def compare_strategies(
    n_nodes: int,
    edge_prob: float,
    trust_dist: TrustDist,
    thresholds: np.ndarray | float,
    rating: float,
    seeds: Sequence[int],
    strategies: Iterable[str] = STRATEGY_KINDS,
    cfg: Optional[SolverConfig] = None,
    publish_fraction: float = 1.0,
    max_rounds: Optional[int] = None,
) -> List[StrategyRun]:
    """Run full sessions for each strategy on identical per-seed graphs.
    Every strategy's session config is built and validated before the first
    graph is drawn, and each seed's graph is released before the next is
    drawn."""
    seeds = _check_seeds(seeds)
    thresholds = _threshold_vector(thresholds, n_nodes)
    configs = [
        EditingConfig(
            strategy=name,
            assumed_rating=rating,
            publish_fraction=publish_fraction,
            max_rounds=max_rounds,
            rating_source=rating,
        )
        for name in strategies
    ]
    for econf in configs:
        econf.validate(n_nodes)
    runs: List[StrategyRun] = []
    for seed in seeds:
        graph_rng, session_rng_base = np.random.SeedSequence(seed).spawn(2)
        g = _draw_graph(np.random.default_rng(graph_rng), n_nodes, edge_prob, trust_dist)
        for econf in configs:
            rng = np.random.default_rng(session_rng_base)
            runs.append(StrategyRun(econf.strategy, seed, run_session(g, thresholds, econf, cfg, rng)))
        del g
    return runs


def median_raters_to_publish(runs: List[StrategyRun]) -> Dict[str, float]:
    """Median number of raters used by published sessions, per strategy."""
    out: Dict[str, float] = {}
    names = sorted({r.strategy for r in runs})
    for name in names:
        counts = [r.log.raters_used() for r in runs if r.strategy == name and r.log.status == "published"]
        out[name] = float(np.median(counts)) if counts else math.nan
    return out


def empirical_k_for_target(
    n_nodes: int,
    edge_prob: float,
    trust_dist: TrustDist,
    threshold: float,
    rating: float,
    target_shares: Iterable[float],
    seeds: Sequence[int],
    cfg: Optional[SolverConfig] = None,
    k_resolution: float = 0.005,
) -> List[float]:
    """For each target share, the smallest rater fraction whose mean
    non-rater satisfied share reaches it, found by bisection over k. Each
    seed's graph and rater permutation are drawn once and serve every probe
    of every target, so probes at different k are nested and the probed
    share is monotone in k seed by seed. Probes that round to one rater
    count share one set of solves."""
    seeds = _check_seeds(seeds)
    thresholds = _threshold_vector(threshold, n_nodes)
    mean_share: Dict[int, float] = {}  # by rater count
    graphs = []
    perms = []
    for seed in seeds:
        graph_rng, perm_rng = _spawn(seed, 2)
        graphs.append(_draw_graph(graph_rng, n_nodes, edge_prob, trust_dist))
        perms.append(perm_rng.permutation(n_nodes))

    def share_at(k: float) -> float:
        n_r = rater_count(k, n_nodes)
        if n_r not in mean_share:
            shares = []
            for g, perm in zip(graphs, perms):
                sv = _solve_raters(g, perm[:n_r], rating, thresholds, cfg)
                non_raters = perm[n_r:]
                sat = np.count_nonzero(sv.scores[non_raters] > thresholds[non_raters])
                shares.append(sat / max(non_raters.size, 1))
            mean_share[n_r] = float(np.mean(shares))
        return mean_share[n_r]

    def bisect(target_share: float) -> float:
        lo, hi = 0.0, 1.0
        if share_at(hi - k_resolution) < target_share:
            return 1.0
        while hi - lo > k_resolution:
            mid = 0.5 * (lo + hi)
            if share_at(mid) >= target_share:
                hi = mid
            else:
                lo = mid
        return hi

    return [bisect(share) for share in target_shares]


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _truncated_mean(mu: float, sigma: float) -> float:
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    z = _norm_cdf(b) - _norm_cdf(a)
    if z == 0.0:
        # [0, 1] lies so far in one tail that the normalizer underflows; the
        # truncated mean tends to the nearer end of the interval
        return 0.0 if mu < 0.0 else 1.0
    return mu + sigma * (_norm_pdf(a) - _norm_pdf(b)) / z


def truncated_normal_thresholds(
    n: int,
    rng: np.random.Generator,
    target_mean: float = 0.25,
    variance: float = 0.144,
) -> tuple[np.ndarray, float, float]:
    """Heterogeneous thresholds: a normal rejection-sampled into [0, 1],
    with its location tuned so the post-truncation mean hits the target.
    Returns (thresholds, achieved_mean, achieved_variance). Raises
    ValidationError when no location in [-4, 4] reaches the target, as for
    a variance too large for it."""
    if not (0.0 < target_mean < 1.0):
        raise ValidationError(f"target_mean must lie in (0, 1), got {target_mean}")
    if not variance > 0.0:
        raise ValidationError(f"variance must be > 0, got {variance}")
    sigma = math.sqrt(variance)
    lo, hi = -4.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _truncated_mean(mid, sigma) < target_mean:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    nearest = _truncated_mean(mu, sigma)
    if abs(nearest - target_mean) > 1e-6:
        raise ValidationError(
            f"no truncated normal with variance {variance} has mean {target_mean} on [0, 1] (nearest: {nearest:.6g})"
        )
    out = np.empty(n)
    filled = 0
    while filled < n:
        draw = rng.normal(mu, sigma, size=max(2 * (n - filled), 64))
        keep = draw[(draw >= 0.0) & (draw <= 1.0)]
        take = min(keep.size, n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out, float(out.mean()), float(out.var())


@dataclass
class CdfTable:
    """Empirical distribution of pooled non-rater scores."""

    x: np.ndarray
    cdf: np.ndarray
    n_samples: int
    sample_mean: float

    @property
    def zero_fraction(self) -> float:
        """Share of non-raters with score exactly 0: the nodes living in
        components that contain no rater."""
        return float(self.cdf[0])


def empirical_satisfaction_cdf(
    spec: ErdosRenyiSpec,
    rater_fraction: float,
    rating: float,
    n_trials: int,
    cfg: Optional[SolverConfig] = None,
    rng: Optional[np.random.Generator] = None,
    grid_points: int = 1001,
) -> CdfTable:
    """Monte Carlo estimate of the non-rater score distribution: generate
    graphs from per-trial seeds, pick round(k * n) raters uniformly, solve,
    and pool the non-rater scores onto a fixed grid. No threshold enters."""
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    if not 0.0 < rating <= 1.0:
        raise ValidationError(f"rating must lie in (0, 1], got {rating}")
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    n = spec.n_nodes
    n_raters = rater_count(rater_fraction, n)
    if n_raters == n:
        raise ValidationError("rater_fraction = 1 leaves no non-rater scores to pool")
    pools = []
    for _ in range(n_trials):
        g = _draw_graph(rng, n, spec.edge_prob, spec.trust_dist)
        raters = rng.choice(n, size=n_raters, replace=False) if n_raters else np.empty(0, np.int64)
        sv = _solve_raters(g, raters, rating, None, cfg)
        pools.append(np.delete(sv.scores, raters))
        del g  # released before the next trial's graph is built
    samples = np.sort(np.concatenate(pools))
    x = np.linspace(0.0, 1.0, grid_points)
    cdf = np.searchsorted(samples, x, side="right") / samples.size
    return CdfTable(x=x, cdf=cdf, n_samples=int(samples.size), sample_mean=float(samples.mean()))
