"""Rater-selection strategies.

Three ways to pick the next reviewer: uniformly at random, by largest
incoming trust from non-raters, or greedily by marginal satisfaction (the
change in the number of satisfied users if the candidate were promoted at an
assumed rating). The greedy has a slow path that re-solves the score system
per candidate, and, at alpha = 0.5 where the averaging weights do not depend
on the rater set, a fast path built on a pairwise influence table.

The table rests on M = (I - W_FF)^-1, the inverse of the averaging weights
among the free nodes (the non-raters). Pinning free node c at its score plus
x, with raters held fixed, moves free node j by x * M[j, c] / M[c, c], so

    DeltaMatrix.delta[c, j] = M[j, c] / M[c, c].

M exists and is nonnegative unless a rater-free class of nodes trusts only
itself, all at trust exactly 1; ``delta_init`` then raises
``SingularInfluence``. Promoting free node k to rater takes the Schur
complement, which is the inverse over the remaining free nodes:

    M'[i, j] = M[i, j] - M[i, k] * M[k, j] / M[k, k],    M[k, k] >= 1.

The table holds M in one buffer over the free nodes it was built for and
updates it in place; k's row and column become zero, and a mask of buffer
positions (``DeltaMatrix.pos``) tracks the free nodes left.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import AlphaUnsupported, NoNonRaters, SingularInfluence, StaleDelta, TooLarge, ValidationError
from .graph import TrustGraph
from .satisfaction import (
    SatisfactionVector,
    SessionState,
    SolverConfig,
    require_converged,
    satisfied_count,
    solve_iterative,
)

STRATEGY_KINDS = ("random", "trust", "marginal")

# Node limit of marginal sessions: the influence table holds n^2 floats, and
# the re-solve greedy costs n_free + 1 full solves per round in its place.
DELTA_FAST_PATH_CAP = 5000

# Rows per chunk of the in-place promote; bounds its temporaries.
PROMOTE_CHUNK = 64


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
    at `assumed_rating`. The input state is left untouched. Raises
    NotConverged when a solve runs out of iterations."""
    if candidate in state.ratings:
        raise ValidationError(f"candidate {candidate} is already a rater")
    if base_count is None:
        base = require_converged(solve_iterative(g, state, cfg), "base solve")
        base_count, _ = satisfied_count(base, state.thresholds)
    trial = state.copy()
    trial.add_rater(candidate, assumed_rating)
    sv = require_converged(solve_iterative(g, trial, cfg), f"trial solve for candidate {candidate}")
    count, _ = satisfied_count(sv, state.thresholds)
    return count - base_count


def select_marginal_greedy(
    g: TrustGraph,
    state: SessionState,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
) -> int:
    """Non-rater with the largest marginal satisfaction, re-solving the
    score system for every candidate. Ties go to the smallest index. Raises
    NotConverged at the first solve that runs out of iterations."""
    nr = _non_raters(g, state)
    base = require_converged(solve_iterative(g, state, cfg), "base solve")
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

    ``m`` holds M over the non-raters the table was built for and is
    updated in place by ``delta_promote``; ``pos`` gives the buffer position
    of each current non-rater in ``free_nodes``. ``raters`` fingerprints the
    rater set the table is valid for.
    """

    m: np.ndarray
    pos: np.ndarray
    free_nodes: np.ndarray
    raters: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        """``delta[c, j]``: rise of free node j per unit pinned at free node
        c, as a new array over the current non-raters."""
        sub = self.m.take(self.pos, axis=0).take(self.pos, axis=1)
        return sub.T / np.diag(sub)[:, None]

    def position(self, node: int) -> int:
        pos = int(np.searchsorted(self.free_nodes, node))
        if pos >= self.free_nodes.size or self.free_nodes[pos] != node:
            raise StaleDelta(f"node {node} is not a non-rater in this table")
        return pos

    def row(self, node: int) -> np.ndarray:
        p = self.pos[self.position(node)]
        return self.m[self.pos, p] / self.m[p, p]

    def matches(self, state: SessionState) -> bool:
        return np.array_equal(self.raters, state.raters)


def _require_half_alpha(state: SessionState) -> None:
    if state.alpha != 0.5:
        raise AlphaUnsupported(
            f"influence table requires alpha = 0.5 (weights independent of raters), got {state.alpha}"
        )


def delta_init(g: TrustGraph, state: SessionState, cfg: Optional[SolverConfig] = None) -> DeltaMatrix:
    """Build the influence table: assemble I - W_FF densely over the
    non-raters and invert it in place. The inverse must pass its
    certificate M (I - W_FF) 1 = 1 to the solver tolerance; otherwise the
    table does not exist and SingularInfluence is raised."""
    _require_half_alpha(state)
    state.validate(g.n_nodes)
    cfg = cfg or SolverConfig()
    cfg.validate()
    free = state.non_raters(g.n_nodes)
    at = np.full(g.n_nodes, -1, dtype=np.int64)
    at[free] = np.arange(free.size)
    rows = g.out_rows()
    src, dst = at[rows], at[g.out_indices]
    inner = (src >= 0) & (dst >= 0)
    m = np.eye(free.size)
    m[src[inner], dst[inner]] = -g.half_weights[inner]
    # (I - W_FF) 1 = 1 - sum_F t^2 / sum t, summed without cancellation: it
    # is exactly 0 on rows whose trust is all 1 and all toward non-raters
    t = g.out_trust
    kept = np.bincount(rows, weights=np.where(dst >= 0, t * (1.0 - t), t), minlength=g.n_nodes)
    total = np.bincount(rows, weights=t, minlength=g.n_nodes)
    leak = np.divide(kept, total, out=np.ones(g.n_nodes), where=total > 0)[free]
    try:
        _kernels.invert_in_place(m)
    except np.linalg.LinAlgError:
        raise SingularInfluence("I - W over the non-raters has a singular pivot block") from None
    resid = float(np.max(np.abs(m @ leak - 1.0), initial=0.0))
    if not resid <= cfg.tolerance:
        raise SingularInfluence(
            f"inverse of I - W over the non-raters fails its certificate (residual {resid:.3g})"
        )
    return DeltaMatrix(m, np.arange(free.size), free, state.raters)


def delta_promote(dm: DeltaMatrix, k: int) -> DeltaMatrix:
    """Promote non-rater k: take the Schur complement of the table in place,
    drop k from the free set and add it to the fingerprint. Returns ``dm``,
    which now describes the promoted rater set."""
    c = dm.position(k)
    p = dm.pos[c]
    m = dm.m
    col = m[:, p] / m[p, p]
    row = m[p, :].copy()
    for lo in range(0, m.shape[0], PROMOTE_CHUNK):
        m[lo:lo + PROMOTE_CHUNK] -= col[lo:lo + PROMOTE_CHUNK, None] * row
    m[p, :] = 0.0
    m[:, p] = 0.0
    dm.pos = np.delete(dm.pos, c)
    dm.free_nodes = np.delete(dm.free_nodes, c)
    dm.raters = np.sort(np.append(dm.raters, k))
    return dm


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
    best_pos, _gain = _kernels.injection_scan(dm.m, s_free, b_free, float(assumed_rating), dm.pos)
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
