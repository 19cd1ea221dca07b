"""Rater-selection strategies.

Three ways to pick the next reviewer: uniformly at random, by largest
incoming trust from non-raters, or greedily by marginal satisfaction (the
change in the number of satisfied users if the candidate were promoted at an
assumed rating). The greedy has a slow path that re-solves the score system
per candidate, and a fast path built on a pairwise influence table. The
table alone decides when the fast path applies: ``delta_init`` raises
``AlphaUnsupported`` unless alpha = 0.5, where the averaging weights do not
depend on the rater set, and ``SingularInfluence`` when M (below) does not
exist; a session then runs the slow path for that round.

The table rests on M = (I - W_FF)^-1, the inverse of the averaging weights
among the free nodes (the non-raters). Pinning free node c at its score plus
x, with raters held fixed, moves free node j by x * M[j, c] / M[c, c], so

    DeltaMatrix.delta[c, j] = M[j, c] / M[c, c].

M exists and is nonnegative unless a rater-free class of nodes trusts only
itself, all at trust exactly 1; ``delta_init`` then raises
``SingularInfluence``. Promoting free node k to rater takes the Schur
complement, which is the inverse over the remaining free nodes:

    M'[i, j] = M[i, j] - M[i, k] * M[k, j] / M[k, k],    M[k, k] >= 1.

The table is indexed by node id. Its buffer ``m`` spans all n nodes, and
the free mask ``DeltaMatrix.free`` marks the nodes whose rows and columns
are M; the rows and columns of raters are identity at build time and are
never read. It holds M in factored form,

    M = m - U V,

with up to ``PENDING_RANK`` pending promotes in the thin factors U and V. A
promote reads k's current column and row (one matrix-vector product each),
appends the column over the pivot to U and the row to V, and clears k's
free bit, which costs O(n r) instead of a pass over all n^2 entries; when
the factors are full they are flushed into ``m`` by one chunked matmul. The
candidate scan applies the pending factors to each chunk of rows it reads.
Entries in the rows and columns of promoted nodes are left over (near zero)
and never read.
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
# the re-solve greedy costs n_free full solves per round in its place.
DELTA_FAST_PATH_CAP = 5000

# Pending promotes held in the factors of the influence table before they
# are flushed into its buffer.
PENDING_RANK = 32


def _non_raters(rater: np.ndarray) -> np.ndarray:
    nr = np.flatnonzero(~rater)
    if nr.size == 0:
        raise NoNonRaters("every node is already a rater")
    return nr


def select_random(g: TrustGraph, state: SessionState, rng: np.random.Generator) -> int:
    """Uniform choice among current non-raters."""
    nr = _non_raters(state.rater_mask(g.n_nodes))
    return int(nr[rng.integers(nr.size)])


def select_trust_greedy(g: TrustGraph, state: SessionState) -> int:
    """Non-rater with the largest summed incoming trust from non-raters;
    ties go to the smallest node index."""
    rater = state.rater_mask(g.n_nodes)
    nr = _non_raters(rater)
    contrib = np.where(rater[g.out_rows()], 0.0, g.out_trust)
    in_sums = np.bincount(g.out_indices, weights=contrib, minlength=g.n_nodes)
    return int(nr[np.argmax(in_sums[nr])])


def _satisfied_with(
    g: TrustGraph, state: SessionState, extra: tuple, rating: float, cfg: Optional[SolverConfig], what: str
) -> int:
    """Satisfied count after solving ``state`` with every node of ``extra``
    added as a rater at ``rating``; raises NotConverged naming ``what``."""
    trial = state.copy()
    for node in extra:
        trial.add_rater(int(node), rating)
    sv = require_converged(solve_iterative(g, trial, cfg), what)
    return satisfied_count(sv, state.thresholds)[0]


def marginal_satisfaction(
    g: TrustGraph,
    state: SessionState,
    candidate: int,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
) -> int:
    """Change in the satisfied-user count if `candidate` rated the document
    at `assumed_rating`. The input state is left untouched. Raises
    NotConverged when a solve runs out of iterations."""
    if candidate in state.ratings:
        raise ValidationError(f"candidate {candidate} is already a rater")
    base = _satisfied_with(g, state, (), assumed_rating, cfg, "base solve")
    what = f"trial solve for candidate {candidate}"
    return _satisfied_with(g, state, (candidate,), assumed_rating, cfg, what) - base


def select_marginal_greedy(
    g: TrustGraph,
    state: SessionState,
    assumed_rating: float = 1.0,
    cfg: Optional[SolverConfig] = None,
) -> int:
    """Non-rater with the largest marginal satisfaction, re-solving the
    score system for every candidate. The largest count is the largest
    gain, so the current state is never solved. Ties go to the smallest
    index. Raises NotConverged at the first solve that runs out of
    iterations."""
    nr = _non_raters(state.rater_mask(g.n_nodes))
    counts = [
        _satisfied_with(g, state, (c,), assumed_rating, cfg, f"trial solve for candidate {c}")
        for c in nr.tolist()
    ]
    return int(nr[np.argmax(counts)])


@dataclass
class DeltaMatrix:
    """Pairwise influence coefficients over the current non-raters.

    The table is M = m - u[:, :rank] @ v[:rank], indexed by node id: ``m``
    is the buffer, and ``u`` and ``v`` hold the ``rank`` promotes that
    ``delta_promote`` has not yet flushed into it. ``free`` marks the
    non-raters; the table is valid for the rater set it leaves out.
    """

    m: np.ndarray
    free: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rank: int = 0

    @property
    def free_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.free)

    def pending(self) -> tuple[np.ndarray, np.ndarray]:
        """The pending factors, as views: M = m - u @ v."""
        return self.u[:, :self.rank], self.v[:self.rank]

    @property
    def delta(self) -> np.ndarray:
        """``delta[c, j]``: rise of free node j per unit pinned at free node
        c, as a new array over the current non-raters."""
        f = self.free_nodes
        u, v = self.pending()
        sub = self.m.take(f, axis=0).take(f, axis=1)
        sub -= u[f] @ v[:, f]
        return sub.T / np.diag(sub)[:, None]

    def position(self, node: int) -> int:
        """Index of non-rater ``node`` in ``free_nodes``."""
        if not (0 <= node < self.free.size and self.free[node]):
            raise StaleDelta(f"node {node} is not a non-rater in this table")
        return int(np.count_nonzero(self.free[:node]))

    def row(self, node: int) -> np.ndarray:
        c = self.position(node)
        f = self.free_nodes
        u, v = self.pending()
        col = self.m[f, node] - u[f] @ v[:, node]
        return col / col[c]

    def matches(self, state: SessionState) -> bool:
        return np.array_equal(~self.free, state.rater_mask(self.free.size))


def _require_half_alpha(state: SessionState) -> None:
    if state.alpha != 0.5:
        raise AlphaUnsupported(
            f"influence table requires alpha = 0.5 (weights independent of raters), got {state.alpha}"
        )


def delta_init(g: TrustGraph, state: SessionState, cfg: Optional[SolverConfig] = None) -> DeltaMatrix:
    """Build the influence table: assemble I - W densely over all nodes,
    keeping only the edges between non-raters, and invert it in place. The
    inverse must pass its certificate M (I - W) 1 = 1 to the solver
    tolerance; otherwise the table does not exist and SingularInfluence is
    raised."""
    _require_half_alpha(state)
    state.validate(g.n_nodes)
    cfg = cfg or SolverConfig()
    cfg.validate()
    n = g.n_nodes
    free = ~state.rater_mask(n)
    rows, dst = g.out_rows(), g.out_indices
    inner = free[rows] & free[dst]
    m = np.eye(n)
    m[rows[inner], dst[inner]] = -g.half_weights[inner]
    # (I - W) 1 = 1 - sum_F t^2 / sum t on free rows, summed without
    # cancellation: it is exactly 0 on rows whose trust is all 1 and all
    # toward non-raters. Rater rows are identity rows.
    t = g.out_trust
    kept = np.bincount(rows, weights=np.where(free[dst], t * (1.0 - t), t), minlength=n)
    total = np.bincount(rows, weights=t, minlength=n)
    leak = np.divide(kept, total, out=np.ones(n), where=(total > 0) & free)
    try:
        with _kernels.serial_blas():
            _kernels.invert_in_place(m)
    except np.linalg.LinAlgError:
        raise SingularInfluence("I - W over the non-raters has a singular pivot block") from None
    resid = float(np.max(np.abs(m @ leak - 1.0), initial=0.0))
    if not resid <= cfg.tolerance:
        raise SingularInfluence(
            f"inverse of I - W over the non-raters fails its certificate (residual {resid:.3g})"
        )
    return DeltaMatrix(m, free, np.empty((n, PENDING_RANK)), np.empty((PENDING_RANK, n)))


def delta_promote(dm: DeltaMatrix, k: int) -> DeltaMatrix:
    """Promote non-rater k: append its Schur complement update to the
    pending factors (flushing them into the buffer when full) and clear its
    free bit. Returns ``dm``, which now describes the promoted rater set."""
    dm.position(k)  # raises StaleDelta unless k is free
    r = dm.rank
    u, v = dm.pending()
    col = dm.m[:, k] - u @ v[:, k]
    dm.v[r] = dm.m[k] - u[k] @ v
    dm.u[:, r] = col / col[k]
    dm.rank = r + 1
    if dm.rank == PENDING_RANK:
        # row chunks of the same size bound the flush's temporaries
        m = dm.m
        with _kernels.serial_blas():
            for lo in range(0, m.shape[0], PENDING_RANK):
                m[lo:lo + PENDING_RANK] -= dm.u[lo:lo + PENDING_RANK] @ dm.v
        dm.rank = 0
    dm.free[k] = False
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
    free = dm.free_nodes
    if free.size == 0:
        raise NoNonRaters("every node is already a rater")
    with _kernels.serial_blas():
        best_pos, _gain = _kernels.injection_scan(
            dm.m, s.scores[free], state.thresholds[free], float(assumed_rating), free, *dm.pending()
        )
    return int(free[best_pos])


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
    lexicographically on the sorted node tuple. Raises NotConverged at the
    first solve that runs out of iterations."""
    nr = np.flatnonzero(~state.rater_mask(g.n_nodes))
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
            count = _satisfied_with(g, state, combo, assumed_rating, cfg, f"exhaustive solve for raters {combo}")
            if count > best_count or (count == best_count and combo < best_set):
                best_count = count
                best_set = combo
    return best_set
