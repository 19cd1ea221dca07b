"""Satisfaction scores: the trust-weighted fixed point and its solvers.

A review session pins every rater's score to their rating. Each non-rater's
score is a trust-weighted average of neighbor scores,

    s_i = sum_j w_ij s_j,
    w_ij = t_ij^2 * f_j / (alpha * T_R(i) + (1 - alpha) * T_N(i)),

where f_j is alpha for rater neighbors and 1 - alpha otherwise, and T_R(i),
T_N(i) are the summed trusts from i toward rater and non-rater neighbors.
Nodes with no directed trust path into the rater set are pinned to zero.
Squaring the trust in the numerator makes the weights sum to at most one,
which gives this system a unique solution on the reachable set. The solver
below reaches it by synchronous sweeps with Anderson acceleration (see
``_kernels.propagate_scores``): it stops at the first plain sweep that moves
no score by more than the tolerance and returns that sweep's scores, which
lie in [0, 1].

``alpha`` (the extra weight on first-hand opinions) lives in [0.5, 1]. At
exactly alpha = 1 a non-rater with no rater neighbor would have a 0/0
weight row; we use the alpha -> 1 limit, t^2 / sum(t) over its (non-rater)
neighbors, so every alpha in [0.5, 1] is well defined.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import NotConverged, TooLarge, ValidationError
from .graph import TrustGraph, validate_thresholds

DEFAULT_TOLERANCE = 1e-10
MIN_ITERATION_FLOOR = 1000


@dataclass
class SessionState:
    """Raters with their ratings, per-node thresholds, and the rater weight.

    ``ratings`` maps each rater to their rating; its key set *is* the rater
    set. Thresholds cover every node.
    """

    ratings: Dict[int, float]
    thresholds: np.ndarray
    alpha: float = 0.5

    def validate(self, n_nodes: int) -> None:
        self.thresholds = validate_thresholds(self.thresholds, n_nodes)
        if not (0.5 <= self.alpha <= 1.0):
            raise ValidationError(f"alpha must lie in [0.5, 1], got {self.alpha}")
        for node, r in self.ratings.items():
            if not 0 <= node < n_nodes:
                raise ValidationError(f"rater {node} outside [0, {n_nodes})")
            if not (0.0 <= r <= 1.0):
                raise ValidationError(f"rating {r} for node {node} must lie in [0, 1]")

    @property
    def raters(self) -> np.ndarray:
        return np.array(sorted(self.ratings), dtype=np.int64)

    def rater_mask(self, n_nodes: int) -> np.ndarray:
        mask = np.zeros(n_nodes, dtype=bool)
        if self.ratings:
            mask[list(self.ratings)] = True
        return mask

    def rating_vector(self, n_nodes: int) -> np.ndarray:
        vec = np.zeros(n_nodes)
        for node, r in self.ratings.items():
            vec[node] = r
        return vec

    def non_raters(self, n_nodes: int) -> np.ndarray:
        return np.flatnonzero(~self.rater_mask(n_nodes)).astype(np.int64)

    def add_rater(self, node: int, rating: float) -> None:
        self.ratings[node] = float(rating)

    def copy(self) -> "SessionState":
        return SessionState(dict(self.ratings), self.thresholds, self.alpha)

    def cleared(self) -> "SessionState":
        """Fresh state with no raters, as after a content edit resets scores."""
        return SessionState({}, self.thresholds, self.alpha)


@dataclass
class SolverConfig:
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: Optional[int] = None  # default 10 * n_nodes, floor 1000
    warm_start: Optional[np.ndarray] = None

    def validate(self) -> None:
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")

    def resolved_max_iterations(self, n_nodes: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return max(10 * n_nodes, MIN_ITERATION_FLOOR)


@dataclass
class SatisfactionVector:
    """Per-node scores plus convergence metadata from the last solve."""

    scores: np.ndarray
    iterations_used: int
    max_residual: float
    converged: bool


def compute_weights(g: TrustGraph, state: SessionState) -> np.ndarray:
    """Per-edge averaging weights, aligned with the graph's out-edge arrays.

    Rows of raters are zeroed (their scores are pinned, the weights unused).
    For alpha = 0.5 the other rows are independent of the rater set and equal
    the graph's own ``half_weights``, which the solvers read instead.
    """
    n = g.n_nodes
    t = g.out_trust
    rows = g.out_rows()
    rater = state.rater_mask(n)
    alpha = state.alpha

    factor = np.where(rater[g.out_indices], alpha, 1.0 - alpha)
    denom = np.bincount(rows, weights=t * factor, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = t * t * factor / denom[rows]

    dead = denom[rows] == 0.0
    if dead.any():
        # alpha == 1 with no rater neighbors: fall back to the alpha -> 1
        # limit, t^2 / sum(t) over the row.
        denom_all = np.bincount(rows, weights=t, minlength=n)
        w[dead] = (t * t / denom_all[rows])[dead]

    w[rater[rows]] = 0.0
    return w


def reachability_mask(g: TrustGraph, raters: Sequence[int]) -> np.ndarray:
    """True for nodes with a directed trust path into the rater set
    (raters included), found by BFS over the transpose graph."""
    sources = np.asarray(raters, dtype=np.int64)
    return _kernels.reachable_mask(g.in_indptr, g.in_indices, sources, g.n_nodes)


def _initial_scores(g, state, cfg, mask):
    n = g.n_nodes
    if cfg.warm_start is None:
        s = np.zeros(n)
    else:
        s = np.array(cfg.warm_start, dtype=np.float64, copy=True)
        if s.shape != (n,):
            raise ValidationError(f"warm start must have shape ({n},), got {s.shape}")
        if not np.all((s >= 0.0) & (s <= 1.0)):
            raise ValidationError("warm start scores must lie in [0, 1]")
        s[~mask] = 0.0
    for node, r in state.ratings.items():
        s[node] = r
    return s


def solve_iterative(g: TrustGraph, state: SessionState, cfg: Optional[SolverConfig] = None) -> SatisfactionVector:
    """Solve the score fixed point by accelerated sparse sweeps.

    Starts from ratings-at-raters / zero-elsewhere (or the warm start),
    pins unreachable nodes to zero, and sweeps reachable non-rater rows
    until a sweep moves no coordinate more than the tolerance.
    ``iterations_used`` counts sweeps, and ``converged`` is False when the
    iteration budget ran out first. With no raters the result is the
    all-zero vector.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    state.validate(g.n_nodes)
    n = g.n_nodes

    if not state.ratings:
        return SatisfactionVector(np.zeros(n), 0, 0.0, True)

    rater = state.rater_mask(n)
    mask = reachability_mask(g, state.raters)
    weights = g.half_weights if state.alpha == 0.5 else compute_weights(g, state)
    s = _initial_scores(g, state, cfg, mask)
    update = np.flatnonzero(mask & ~rater).astype(np.int64)

    iters, resid, converged = _kernels.propagate_scores(
        g.out_indptr,
        g.out_indices,
        weights,
        update,
        s,
        cfg.tolerance,
        cfg.resolved_max_iterations(n),
    )
    return SatisfactionVector(s, int(iters), float(resid), bool(converged))


def require_converged(sv: SatisfactionVector, what: str) -> SatisfactionVector:
    """``sv``, or NotConverged when the solve ``what`` ran out of iterations."""
    if not sv.converged:
        raise NotConverged(f"{what} stopped after {sv.iterations_used} iterations at residual {sv.max_residual:.3g}")
    return sv


DENSE_ORACLE_LIMIT = 2000


def solve_dense_oracle(g: TrustGraph, state: SessionState) -> SatisfactionVector:
    """Assemble the linear system over reachable non-raters and solve it
    directly (LU with partial pivoting). Validation oracle for the sweep
    solver; guarded to small graphs."""
    if g.n_nodes > DENSE_ORACLE_LIMIT:
        raise TooLarge(f"dense oracle limited to {DENSE_ORACLE_LIMIT} nodes, got {g.n_nodes}")
    state.validate(g.n_nodes)
    n = g.n_nodes

    if not state.ratings:
        return SatisfactionVector(np.zeros(n), 0, 0.0, True)

    rater = state.rater_mask(n)
    ratings = state.rating_vector(n)
    mask = reachability_mask(g, state.raters)
    free = np.flatnonzero(mask & ~rater)
    s = np.zeros(n)
    s[rater] = ratings[rater]
    if free.size == 0:
        return SatisfactionVector(s, 0, 0.0, True)

    w = compute_weights(g, state)
    rows = g.out_rows()
    pos = np.full(n, -1, dtype=np.int64)
    pos[free] = np.arange(free.size)

    sel = pos[rows] >= 0
    e_src = pos[rows[sel]]
    e_dst = g.out_indices[sel]
    e_w = w[sel]

    a = np.eye(free.size)
    to_free = pos[e_dst] >= 0
    a[e_src[to_free], pos[e_dst[to_free]]] -= e_w[to_free]

    rhs = np.zeros(free.size)
    to_rater = rater[e_dst]
    np.add.at(rhs, e_src[to_rater], e_w[to_rater] * ratings[e_dst[to_rater]])

    sol = np.linalg.solve(a, rhs)
    s[free] = sol
    residual = float(np.max(np.abs(a @ sol - rhs))) if free.size else 0.0
    return SatisfactionVector(s, 0, residual, True)


def satisfied_count(
    scores: Union[np.ndarray, SatisfactionVector], thresholds: np.ndarray
) -> tuple[int, np.ndarray]:
    """Users strictly above their threshold: (count, boolean membership mask)."""
    s = scores.scores if isinstance(scores, SatisfactionVector) else np.asarray(scores)
    mask = s > np.asarray(thresholds)
    return int(np.count_nonzero(mask)), mask
