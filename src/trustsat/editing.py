"""End-to-end review sessions and the rating-agreement trust update.

A session repeatedly picks a reviewer, records their rating, re-solves the
scores, and stops when the satisfied fraction reaches the publication target
(``publish_fraction`` = 1 means nobody may sit at or below their threshold),
when it deadlocks, or when the round budget runs out. Document content is
held fixed within a session; an actual edit is modeled by clearing the state
(``SessionState.cleared``) and starting over.

A session deadlocks when every remaining unsatisfied user is already a rater
whose own rating is at or below their threshold: such scores are pinned and
no further selection can move them. Unsatisfied non-raters never deadlock a
session since they can still be picked to rate (satisfying themselves
whenever their rating exceeds their threshold).

Trust updates blend the old value with a rating-agreement term,

    t' = gamma * t + (1 - gamma) / (1 + sharpness * |r_i - r_j|),

in both directions between every pair of raters. The agreement term is 1
for identical ratings and decays convexly with the rating gap; it never
quite reaches 0 (only as sharpness grows without bound). Missing edges enter
with old trust 0, so rating twice alike creates trust without any direct
interaction. A session runs on its input graph and merges all the updates
once, when it ends. Re-blending each new rater's pairs as it joins gives the
same rounds and graph: rater-rater edges never enter a score, and each pair
is blended once, from its input trust, by a rule symmetric in the ratings.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

import numpy as np

from .errors import ValidationError
from .graph import TrustGraph, _from_edge_arrays
from .satisfaction import (
    SatisfactionVector,
    SessionState,
    SolverConfig,
    compute_weights,
    satisfied_count,
    solve_iterative,
)
from .selection import (
    DELTA_FAST_PATH_CAP,
    DeltaMatrix,
    SelectionStrategy,
    delta_init,
    delta_promote,
    marginal_greedy_fast,
    select_marginal_greedy,
    select_random,
    select_trust_greedy,
)

log = logging.getLogger(__name__)

DEFAULT_TRUST_SHARPNESS = 16.0


@dataclass(frozen=True)
class TrustUpdateConfig:
    gamma: float = 0.5  # weight kept from the previous trust value
    sharpness: float = DEFAULT_TRUST_SHARPNESS  # convexity of the agreement curve

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not self.sharpness > 0:
            raise ValidationError(f"sharpness must be > 0, got {self.sharpness}")


@dataclass
class EditingConfig:
    strategy: SelectionStrategy
    publish_fraction: float = 1.0  # satisfied fraction required to publish
    max_rounds: Optional[int] = None  # default: one round per node
    rating_source: Union[float, np.ndarray] = 1.0
    trust_update: Optional[TrustUpdateConfig] = None
    alpha: float = 0.5

    def validate(self, n_nodes: int) -> None:
        if not (0.0 < self.publish_fraction <= 1.0):
            raise ValidationError(
                f"publish_fraction must lie in (0, 1], got {self.publish_fraction}"
            )
        if isinstance(self.rating_source, np.ndarray):
            if self.rating_source.shape != (n_nodes,):
                raise ValidationError("per-node rating table must cover every node")
            if not np.all((self.rating_source >= 0) & (self.rating_source <= 1)):
                raise ValidationError("ratings must lie in [0, 1]")
        elif not (0.0 <= float(self.rating_source) <= 1.0):
            raise ValidationError(f"rating must lie in [0, 1], got {self.rating_source}")

    def rating_for(self, node: int) -> float:
        if isinstance(self.rating_source, np.ndarray):
            return float(self.rating_source[node])
        return float(self.rating_source)


@dataclass
class SessionRound:
    round: int
    rater: int
    rating: float
    satisfied: int
    fraction: float


@dataclass
class SessionLog:
    rounds: List[SessionRound] = field(default_factory=list)
    status: str = "budget_exhausted"  # published | deadlock | budget_exhausted
    final: Optional[SatisfactionVector] = None
    state: Optional[SessionState] = None
    graph: Optional[TrustGraph] = None

    def raters_used(self) -> int:
        return len(self.rounds)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            self.write_csv(f)

    def write_csv(self, f) -> None:
        """The round table and a closing ``# status=`` line, to a text stream."""
        f.write("round,rater,rating,satisfied,fraction\n")
        for r in self.rounds:
            f.write(f"{r.round},{r.rater},{r.rating:.12g},{r.satisfied},{r.fraction:.12g}\n")
        f.write(f"# status={self.status}\n")


def trust_update(t_old, r_i, r_j, cfg: TrustUpdateConfig):
    """Blend old trust with the rating-agreement term, elementwise on arrays;
    symmetric in the two ratings and monotone decreasing in their distance."""
    for name, v in (("t_old", t_old), ("r_i", r_i), ("r_j", r_j)):
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    return cfg.gamma * t_old + (1.0 - cfg.gamma) / (1.0 + cfg.sharpness * np.abs(r_i - r_j))


def apply_rater_trust_updates(
    g: TrustGraph, state: SessionState, cfg: TrustUpdateConfig
) -> TrustGraph:
    """New graph with both directed edges between every pair of raters
    blended from their trust in `g` and their recorded ratings; `g` itself
    when there are fewer than two raters. Edges that do not join two raters
    are untouched, so satisfaction scores are unchanged."""
    if len(state.ratings) < 2:
        return g
    raters = np.fromiter(state.ratings.keys(), dtype=np.int64)
    ratings = np.fromiter(state.ratings.values(), dtype=np.float64)
    pos = np.full(g.n_nodes, -1, dtype=np.int64)
    pos[raters] = np.arange(raters.size)
    src, dst, trust = g.edge_arrays()
    ps, pd = pos[src], pos[dst]
    pair = (ps >= 0) & (pd >= 0)
    block = np.zeros((raters.size, raters.size))
    block[ps[pair], pd[pair]] = trust[pair]
    block = trust_update(block, ratings[:, None], ratings[None, :], cfg)
    np.fill_diagonal(block, 0.0)
    i, j = np.nonzero(block)  # gamma = 1 with no prior edge: still no edge
    return _from_edge_arrays(
        g.n_nodes,
        np.concatenate((src[~pair], raters[i])),
        np.concatenate((dst[~pair], raters[j])),
        np.concatenate((trust[~pair], block[i, j])),
    )


def _select(g, state, cfg, solver_cfg, rng, s, dm):
    kind = cfg.strategy.kind
    if kind == "random":
        return select_random(g, state, rng)
    if kind == "trust":
        return select_trust_greedy(g, state)
    if dm is not None:
        return marginal_greedy_fast(g, state, s, dm, cfg.strategy.assumed_rating)
    return select_marginal_greedy(g, state, cfg.strategy.assumed_rating, solver_cfg)


def run_session(
    g: TrustGraph,
    thresholds: np.ndarray,
    cfg: EditingConfig,
    solver_cfg: Optional[SolverConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> SessionLog:
    """Run one review session to publication, deadlock, or budget
    exhaustion. Deterministic for a given rng seed."""
    cfg.validate(g.n_nodes)
    solver_cfg = solver_cfg or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = g.n_nodes
    max_rounds = cfg.max_rounds if cfg.max_rounds is not None else n

    state = SessionState({}, np.asarray(thresholds, dtype=np.float64), cfg.alpha)
    state.validate(n)

    use_fast = (
        cfg.strategy.kind == "marginal"
        and cfg.alpha == 0.5
        and n <= DELTA_FAST_PATH_CAP
    )
    dm: Optional[DeltaMatrix] = None
    weights = compute_weights(g, state) if cfg.alpha == 0.5 else None

    log_obj = SessionLog()
    sv = solve_iterative(g, state, solver_cfg, weights=weights)
    count, _ = satisfied_count(sv, state.thresholds)
    fraction = count / n
    warned_no_progress = False

    round_no = 0
    while True:
        if fraction >= cfg.publish_fraction:
            log_obj.status = "published"
            break
        unsat = ~satisfied_count(sv, state.thresholds)[1]
        if unsat.any() and not (unsat & ~state.rater_mask(n)).any():
            # every unsatisfied user is a rater pinned at a rating at or
            # below their own threshold
            log_obj.status = "deadlock"
            break
        if round_no >= max_rounds:
            log_obj.status = "budget_exhausted"
            break

        if use_fast and dm is None:
            dm = delta_init(g, state, solver_cfg)
        chosen = _select(g, state, cfg, solver_cfg, rng, sv, dm)
        rating = cfg.rating_for(chosen)

        warm = sv.scores
        if dm is not None:
            # exact linear update at alpha = 0.5; the follow-up solve only
            # polishes numerics
            warm = sv.scores.copy()
            rise = rating - warm[chosen]
            warm[dm.free_nodes] += rise * dm.row(chosen)
            warm[chosen] = rating
            np.clip(warm, 0.0, 1.0, out=warm)
            dm = delta_promote(dm, chosen)

        state.add_rater(chosen, rating)
        sv = solve_iterative(g, state, replace(solver_cfg, warm_start=warm), weights=weights)
        count, _ = satisfied_count(sv, state.thresholds)
        new_fraction = count / n
        if new_fraction <= fraction and not warned_no_progress and new_fraction < cfg.publish_fraction:
            log.debug("round %d: no satisfied-count progress (%.4f)", round_no + 1, new_fraction)
            warned_no_progress = True
        fraction = new_fraction

        round_no += 1
        log_obj.rounds.append(SessionRound(round_no, int(chosen), rating, count, fraction))

    log_obj.final = sv
    log_obj.state = state
    log_obj.graph = g
    if cfg.trust_update is not None:
        log_obj.graph = apply_rater_trust_updates(g, state, cfg.trust_update)
    return log_obj
