"""Rater-selection strategies.

Three ways to pick the next reviewer: uniformly at random, by largest
incoming trust from non-raters, or greedily by marginal satisfaction (the
change in the number of satisfied users if the candidate were promoted at an
assumed rating). The greedy has a slow path that re-solves the score system
per candidate, and, at alpha = 0.5 where the averaging weights do not depend
on the rater set, a fast path built on a pairwise influence table.

``DeltaMatrix.delta[c, j]`` holds the limit increase of free node j's score
per unit increase pinned at free node c (holding raters at zero). Promoting
node k updates every entry in closed form: paths through k stop counting,
and the source's own normalization loses its round trips through k,

    delta'(i, j) = (delta(i, j) - delta(i, k) * delta(k, j))
                   / (1 - delta(i, k) * delta(k, i)).

The denominator is the round-trip correction; it equals 1 whenever i and k
do not influence each other both ways.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import AlphaUnsupported, NoNonRaters, StaleDelta, TooLarge, ValidationError
from .graph import TrustGraph
from .satisfaction import (
    SatisfactionVector,
    SessionState,
    SolverConfig,
    compute_weights,
    satisfied_count,
    solve_iterative,
)

STRATEGY_KINDS = ("random", "trust", "marginal")

# Beyond this many non-raters the dense influence table is not worth its
# memory and the greedy falls back to per-candidate re-solves.
DELTA_FAST_PATH_CAP = 5000


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str
    assumed_rating: float = 1.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValidationError(f"strategy kind must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if not (0.0 < self.assumed_rating <= 1.0):
            raise ValidationError(f"assumed rating must lie in (0, 1], got {self.assumed_rating}")


def _non_raters(g: TrustGraph, state: SessionState) -> np.ndarray:
    nr = state.non_raters(g.n_nodes)
    if nr.size == 0:
        raise NoNonRaters("every node is already a rater")
    return nr


def select_random(g: TrustGraph, state: SessionState, rng: np.random.Generator) -> int:
    """Uniform choice among current non-raters."""
    nr = _non_raters(g, state)
    return int(nr[rng.integers(nr.size)])


def select_trust_greedy(g: TrustGraph, state: SessionState) -> int:
    """Non-rater with the largest summed incoming trust from non-raters;
    ties go to the smallest node index."""
    nr = _non_raters(g, state)
    rater = state.rater_mask(g.n_nodes)
    contrib = np.where(rater[g.out_rows()], 0.0, g.out_trust)
    in_sums = np.bincount(g.out_indices, weights=contrib, minlength=g.n_nodes)
    return int(nr[np.argmax(in_sums[nr])])


def marginal_satisfaction(
    g: TrustGraph,
    state: SessionState,
    candidate: int,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
    base_count: Optional[int] = None,
) -> int:
    """Change in the satisfied-user count if `candidate` rated the document
    at `assumed_rating`. The input state is left untouched."""
    if candidate in state.ratings:
        raise ValidationError(f"candidate {candidate} is already a rater")
    if base_count is None:
        base = solve_iterative(g, state, cfg)
        base_count, _ = satisfied_count(base, state.thresholds)
    trial = state.copy()
    trial.add_rater(candidate, assumed_rating)
    sv = solve_iterative(g, trial, cfg)
    count, _ = satisfied_count(sv, state.thresholds)
    return count - base_count


def select_marginal_greedy(
    g: TrustGraph,
    state: SessionState,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
) -> int:
    """Non-rater with the largest marginal satisfaction, re-solving the
    score system for every candidate. Ties go to the smallest index."""
    nr = _non_raters(g, state)
    base = solve_iterative(g, state, cfg)
    base_count, _ = satisfied_count(base, state.thresholds)
    best_node = -1
    best_gain = None
    for cand in nr:
        gain = marginal_satisfaction(
            g, state, int(cand), assumed_rating, cfg, base_count=base_count
        )
        if best_gain is None or gain > best_gain:
            best_gain = gain
            best_node = int(cand)
    return best_node


@dataclass
class DeltaMatrix:
    """Pairwise influence coefficients over the current non-raters.

    ``delta[c, j]``: rise of free node j per unit pinned at free node c.
    ``raters`` fingerprints the rater set the table was built for.
    """

    delta: np.ndarray
    free_nodes: np.ndarray
    raters: np.ndarray

    def position(self, node: int) -> int:
        pos = int(np.searchsorted(self.free_nodes, node))
        if pos >= self.free_nodes.size or self.free_nodes[pos] != node:
            raise StaleDelta(f"node {node} is not a non-rater in this table")
        return pos

    def row(self, node: int) -> np.ndarray:
        return self.delta[self.position(node), :]

    def matches(self, state: SessionState) -> bool:
        return np.array_equal(self.raters, state.raters)


def _require_half_alpha(state: SessionState) -> None:
    if state.alpha != 0.5:
        raise AlphaUnsupported(
            f"influence table requires alpha = 0.5 (weights independent of raters), got {state.alpha}"
        )


def delta_init(g: TrustGraph, state: SessionState, cfg: Optional[SolverConfig] = None) -> DeltaMatrix:
    """Build the influence table by one unit-injection solve per non-rater:
    pin the source at 1 and all raters at 0, sweep the remaining non-rater
    rows to convergence, and record the limit."""
    _require_half_alpha(state)
    state.validate(g.n_nodes)
    cfg = cfg or SolverConfig()
    cfg.validate()
    free = state.non_raters(g.n_nodes)
    weights = compute_weights(g, state)
    delta = _kernels.influence_columns(
        g.out_indptr,
        g.out_indices,
        weights,
        free,
        cfg.tolerance,
        cfg.resolved_max_iterations(g.n_nodes),
    )
    return DeltaMatrix(delta, free, state.raters)


def delta_promote(dm: DeltaMatrix, k: int) -> DeltaMatrix:
    """Influence table after promoting non-rater k, via the closed-form
    update; k's row and column are dropped and the fingerprint grows."""
    c = dm.position(k)
    col = np.delete(dm.delta[:, c], c)  # delta(i, k) over i != k
    row = np.delete(dm.delta[c, :], c)  # delta(k, j) over j != k
    denom = 1.0 - col * row             # per-source round-trip correction
    np.maximum(denom, 1e-300, out=denom)
    new = np.delete(np.delete(dm.delta, c, axis=0), c, axis=1)
    new -= np.outer(col, row)
    new /= denom[:, None]
    np.clip(new, 0.0, 1.0, out=new)
    np.fill_diagonal(new, 1.0)
    free = np.delete(dm.free_nodes, c)
    raters = np.sort(np.append(dm.raters, k))
    return DeltaMatrix(new, free, raters)


def marginal_greedy_fast(
    g: TrustGraph,
    state: SessionState,
    s: SatisfactionVector,
    dm: DeltaMatrix,
    assumed_rating: float = 1.0,
) -> int:
    """Greedy pick via the influence table: score every candidate's
    hypothetical vector s + (rating - s_c) * delta[c] in one pass. Must
    agree with select_marginal_greedy pick for pick."""
    _require_half_alpha(state)
    if not dm.matches(state):
        raise StaleDelta("influence table was built for a different rater set")
    if dm.free_nodes.size == 0:
        raise NoNonRaters("every node is already a rater")
    s_free = s.scores[dm.free_nodes]
    b_free = state.thresholds[dm.free_nodes]
    best_pos, _gain = _kernels.injection_scan(dm.delta, s_free, b_free, float(assumed_rating))
    return int(dm.free_nodes[best_pos])


EXHAUSTIVE_MAX_FREE = 20
EXHAUSTIVE_MAX_BUDGET = 5


def select_optimal_exhaustive(
    g: TrustGraph,
    state: SessionState,
    budget: int,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
) -> tuple[int, ...]:
    """Best rater set of size <= budget by full enumeration. Benchmark
    oracle only; guarded against combinatorial blowup. Ties break
    lexicographically on the sorted node tuple."""
    nr = state.non_raters(g.n_nodes)
    if nr.size > EXHAUSTIVE_MAX_FREE or budget > EXHAUSTIVE_MAX_BUDGET:
        raise TooLarge(
            f"exhaustive search guarded to {EXHAUSTIVE_MAX_FREE} non-raters "
            f"and budget {EXHAUSTIVE_MAX_BUDGET}"
        )
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    best_set: tuple[int, ...] = ()
    best_count = -1
    for size in range(budget + 1):
        for combo in itertools.combinations(nr.tolist(), size):
            trial = state.copy()
            for node in combo:
                trial.add_rater(int(node), assumed_rating)
            sv = solve_iterative(g, trial, cfg)
            count, _ = satisfied_count(sv, state.thresholds)
            if count > best_count or (count == best_count and combo < best_set):
                best_count = count
                best_set = tuple(int(x) for x in combo)
    return best_set
