"""End-to-end review sessions and the rating-agreement trust update.

A session repeatedly picks a reviewer, records their rating, re-solves the
scores, and stops when the satisfied fraction reaches the publication target
(``publish_fraction`` = 1 means nobody may sit at or below their threshold),
when it deadlocks, or when the round budget runs out. Document content is
held fixed within a session; an actual edit is modeled by clearing the state
(``SessionState.cleared``) and starting over.

A session deadlocks when publication is out of reach. Every score is an
average of ratings with weights summing to at most one, so none exceeds
r_cap, the largest rating ``rating_source`` can assign. A node can then be
satisfied later only if it is a rater whose rating exceeds its threshold or
a non-rater whose threshold lies below r_cap; the session stops as soon as
those nodes fall short of the publication target. This covers the case in
which every unsatisfied user is a rater pinned at or below their threshold,
since the nodes counted are then exactly the satisfied ones.

Trust updates blend the old value with a rating-agreement term,

    t' = gamma * t + (1 - gamma) / (1 + sharpness * |r_i - r_j|),

in both directions between every pair of raters. The agreement term is 1
for identical ratings and decays convexly with the rating gap; it never
quite reaches 0 (only as sharpness grows without bound). Missing edges enter
with old trust 0, so rating twice alike creates trust without any direct
interaction. A session never changes its graph: its caller merges all the
updates once, after it ends, with ``apply_rater_trust_updates(g,
log.state, cfg)``. Re-blending each new rater's pairs as it joins gives the
same rounds and graph: rater-rater edges never enter a score, and each pair
is blended once, from its input trust, by a rule symmetric in the ratings.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import AlphaUnsupported, SingularInfluence, TooLarge, ValidationError
from .graph import TrustGraph, _from_edge_arrays, write_csv
from .satisfaction import (
    SatisfactionVector,
    SessionState,
    SolverConfig,
    require_converged,
    satisfied_count,
    solve_iterative,
)
from .selection import (
    DELTA_FAST_PATH_CAP,
    STRATEGY_KINDS,
    DeltaMatrix,
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
    strategy: str  # one of STRATEGY_KINDS
    assumed_rating: float = 1.0  # candidate rating the marginal greedy assumes
    publish_fraction: float = 1.0  # satisfied fraction required to publish
    max_rounds: Optional[int] = None  # default: one round per node
    rating_source: Union[float, np.ndarray] = 1.0
    alpha: float = 0.5

    def validate(self, n_nodes: int) -> None:
        if self.strategy not in STRATEGY_KINDS:
            raise ValidationError(f"strategy kind must be one of {STRATEGY_KINDS}, got {self.strategy!r}")
        if self.strategy == "marginal" and not (0.0 < self.assumed_rating <= 1.0):
            raise ValidationError(f"assumed rating must lie in (0, 1], got {self.assumed_rating}")
        if n_nodes < 1:
            raise ValidationError(f"a session graph must have >= 1 node, got {n_nodes}")
        if not (0.0 < self.publish_fraction <= 1.0):
            raise ValidationError(
                f"publish_fraction must lie in (0, 1], got {self.publish_fraction}"
            )
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValidationError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if self.strategy == "marginal" and n_nodes > DELTA_FAST_PATH_CAP:
            raise TooLarge(f"marginal sessions are limited to {DELTA_FAST_PATH_CAP} nodes, got {n_nodes}")
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

    def raters_used(self) -> int:
        return len(self.rounds)

    def to_csv(self, dest, header=None) -> None:
        """The round table under an optional ``# key = value`` header and
        above a closing ``# status=`` line; ``dest`` is a path or an open
        text stream."""
        write_csv(
            dest,
            ["round", "rater", "rating", "satisfied", "fraction"],
            [(r.round, r.rater, r.rating, r.satisfied, r.fraction) for r in self.rounds],
            header,
            [f"status={self.status}"],
        )


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
    raters, ratings = state.rater_arrays()
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
    if cfg.strategy == "random":
        return select_random(g, state, rng)
    if cfg.strategy == "trust":
        return select_trust_greedy(g, state)
    if dm is not None:
        return marginal_greedy_fast(g, state, s, dm, cfg.assumed_rating)
    return select_marginal_greedy(g, state, cfg.assumed_rating, solver_cfg)


def run_session(
    g: TrustGraph,
    thresholds: np.ndarray,
    cfg: EditingConfig,
    solver_cfg: Optional[SolverConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> SessionLog:
    """Run one review session to publication, deadlock (publication out of
    reach), or budget exhaustion. Deterministic for a given rng seed.
    Raises NotConverged when the initial or a round's solve runs out of
    iterations. A marginal round without an influence table calls
    ``delta_init``; when that raises ``AlphaUnsupported`` (alpha != 0.5) or
    ``SingularInfluence`` (retried next round, whose rater may break the
    closed class), the round runs the re-solve greedy and logs why at debug
    level. The session leaves ``g`` as it is; a trust update is the
    caller's step after it."""
    cfg.validate(g.n_nodes)
    solver_cfg = solver_cfg or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = g.n_nodes
    max_rounds = cfg.max_rounds if cfg.max_rounds is not None else n

    state = SessionState({}, np.asarray(thresholds, dtype=np.float64), cfg.alpha)
    state.validate(n)
    log_obj = SessionLog(state=state)
    dm: Optional[DeltaMatrix] = None
    b = state.thresholds
    r_cap = float(np.max(cfg.rating_source))
    # nodes that can still be satisfied: raters rating above their
    # threshold, non-raters with a threshold below r_cap (no score exceeds it)
    attainable = int(np.count_nonzero(b < r_cap))

    sv = require_converged(solve_iterative(g, state, solver_cfg), "initial session solve")
    count, _ = satisfied_count(sv, b)
    warned_no_progress = False

    while True:
        if count / n >= cfg.publish_fraction:
            log_obj.status = "published"
            break
        if attainable / n < cfg.publish_fraction:
            log_obj.status = "deadlock"
            break
        round_no = len(log_obj.rounds) + 1
        if round_no > max_rounds:
            break  # status stays budget_exhausted

        if cfg.strategy == "marginal" and dm is None:
            try:
                dm = delta_init(g, state, solver_cfg)
            except (AlphaUnsupported, SingularInfluence) as exc:
                log.debug("round %d: slow path (select_marginal_greedy): %s", round_no, exc)
        chosen = _select(g, state, cfg, solver_cfg, rng, sv, dm)
        rating = cfg.rating_for(chosen)

        warm = sv.scores
        if dm is not None:
            # exact linear update at alpha = 0.5; the follow-up solve only
            # polishes numerics
            warm = sv.scores.copy()
            rise = rating - warm[chosen]
            warm[dm.free] += rise * dm.row(chosen)
            warm[chosen] = rating
            np.clip(warm, 0.0, 1.0, out=warm)
            dm = delta_promote(dm, chosen)

        state.add_rater(chosen, rating)
        attainable += int(rating > b[chosen]) - int(b[chosen] < r_cap)
        sv = solve_iterative(g, state, solver_cfg, warm)
        require_converged(sv, f"session round {round_no} solve")
        last = count
        count, _ = satisfied_count(sv, b)
        if count <= last and not warned_no_progress and count / n < cfg.publish_fraction:
            log.debug("round %d: no satisfied-count progress (%.4f)", round_no, count / n)
            warned_no_progress = True
        log_obj.rounds.append(SessionRound(round_no, int(chosen), rating, count, count / n))

    log_obj.final = sv
    return log_obj
