"""Closed-form predictions on sparse random trust graphs.

For G(n, lambda/n) graphs with a common trust value, a common rating, and
uniformly chosen raters at fraction k (all at equal rater/non-rater weight),
the mean non-rater score has a closed form,

    E[s] = t * r * k * q / (1 - t * (1 - k) * q),   q = 1 - exp(-lambda),

because the conditional mean given degree d >= 1 does not depend on d.
Markov-style bounds on P(s <= b) then pin the rater fraction needed for a
target share T of non-raters to be satisfied between a necessary value

    k_min(T) = b * T * (1 - t*q) / (t*q * (r - b*T))

and a sufficient value (vacuous at 1 when r <= B)

    k_max(T) = B * (1 - t*q) / (t*q * (r - B)),     B = b + T * (1 - b).

To cover a share of the *whole* community, solve (1 - k(T)) * (1 - T) =
1 - target for T by bisection and evaluate the matching k. The score
distribution itself has no tractable closed form; ``experiments`` estimates
it by pooled Monte Carlo over generated graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleTarget, NoRoot, ValidationError


@dataclass(frozen=True)
class ModelParams:
    """Inputs to the closed forms; rater/non-rater weight fixed at 0.5."""

    mean_degree: float  # expected out-degree of the random graph
    trust: float        # common edge trust
    rating: float       # common rating given by every rater
    rater_fraction: float
    threshold: float    # common satisfaction threshold

    def __post_init__(self):
        if not self.mean_degree > 0:
            raise ValidationError(f"mean_degree must be > 0, got {self.mean_degree}")
        if not (0.0 < self.trust <= 1.0):
            raise ValidationError(f"trust must lie in (0, 1], got {self.trust}")
        if not (0.0 < self.rating <= 1.0):
            raise ValidationError(f"rating must lie in (0, 1], got {self.rating}")
        if not (0.0 <= self.rater_fraction <= 1.0):
            raise ValidationError(
                f"rater_fraction must lie in [0, 1], got {self.rater_fraction}"
            )
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.rating > self.threshold:
            raise ValidationError(
                f"rating must exceed threshold, got r={self.rating}, b={self.threshold}"
            )

    @property
    def reach_prob(self) -> float:
        """q = 1 - exp(-mean_degree); probability of having any trustee."""
        if math.isinf(self.mean_degree):
            return 1.0
        return -math.expm1(-self.mean_degree)


@dataclass(frozen=True)
class BoundsResult:
    """Whole-community rater-fraction bounds and the auxiliary non-rater
    shares they were solved at."""

    k_min: float
    k_max: float
    t_star_min: float
    t_star_max: float
    k_max_vacuous: bool = False


def poisson_degree_pmf(mean_degree: float, d: int) -> float:
    """P(D = d) for a Poisson degree law, evaluated in log space."""
    if mean_degree <= 0:
        raise ValidationError(f"mean_degree must be > 0, got {mean_degree}")
    if d < 0 or d != int(d):
        raise ValidationError(f"d must be a nonnegative integer, got {d}")
    d = int(d)
    if d == 0:
        return math.exp(-mean_degree)
    return math.exp(-mean_degree + d * math.log(mean_degree) - math.lgamma(d + 1))


def expected_satisfaction(p: ModelParams) -> float:
    """Mean non-rater score under uniformly chosen raters."""
    q = p.reach_prob
    num = p.trust * p.rating * p.rater_fraction * q
    if num == 0.0:
        return 0.0
    return num / (1.0 - p.trust * (1.0 - p.rater_fraction) * q)


def k_min_for_target(p: ModelParams, share: float) -> float:
    """Necessary rater fraction for a share of non-raters to be satisfied.

    Values above 1 mean no rater fraction can certify the target through
    this bound. Raises InfeasibleTarget when threshold * share >= rating
    (the bound's denominator closes).
    """
    if not (0.0 < share < 1.0):
        raise ValidationError(f"share must lie in (0, 1), got {share}")
    bt = p.threshold * share
    if bt >= p.rating:
        raise InfeasibleTarget(
            f"threshold * share = {bt} must stay below rating {p.rating}"
        )
    q = p.reach_prob
    tq = p.trust * q
    if tq == 0.0:
        raise InfeasibleTarget("no trust can flow: trust * reach probability is 0")
    return max(bt * (1.0 - tq) / (tq * (p.rating - bt)), 0.0)


def _k_max_raw(p: ModelParams, share: float) -> float:
    big_b = p.threshold + share * (1.0 - p.threshold)
    if p.rating <= big_b:
        return math.inf
    q = p.reach_prob
    tq = p.trust * q
    if tq == 0.0:
        return math.inf
    return big_b * (1.0 - tq) / (tq * (p.rating - big_b))


def k_max_for_target(p: ModelParams, share: float) -> float:
    """Sufficient rater fraction for a share of non-raters to be satisfied,
    clipped to 1. Returns 1 when the bound is vacuous (rating too close to
    the lifted threshold)."""
    if not (0.0 < share < 1.0):
        raise ValidationError(f"share must lie in (0, 1), got {share}")
    return min(_k_max_raw(p, share), 1.0)


def _bisect_share(func, target_whole: float, tol: float = 1e-10) -> float:
    """Solve (1 - func(T)) * (1 - T) = 1 - target_whole for T in (0, 1)."""

    def g(t_val: float) -> float:
        k = func(t_val)
        if math.isinf(k):
            return -math.inf
        return (1.0 - k) * (1.0 - t_val) - (1.0 - target_whole)

    lo, hi = 1e-12, 1.0 - 1e-12
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise NoRoot(
            f"no sign change on (0, 1): g({lo:.2g}) = {g_lo:.4g}, g({hi:.2g}) = {g_hi:.4g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def community_thresholds(p: ModelParams, target_whole: float) -> BoundsResult:
    """Rater fractions needed so the target share of the *whole* community
    (raters included) is satisfied: solves the per-bound share equation by
    bisection and evaluates the bound there."""
    if not (0.0 < target_whole < 1.0):
        raise ValidationError(f"target_whole must lie in (0, 1), got {target_whole}")
    t_min = _bisect_share(lambda s: k_min_for_target(p, s), target_whole)
    t_max = _bisect_share(lambda s: _k_max_raw(p, s), target_whole)
    raw = _k_max_raw(p, t_max)
    return BoundsResult(
        k_min=k_min_for_target(p, t_min),
        k_max=min(raw, 1.0),
        t_star_min=t_min,
        t_star_max=t_max,
        k_max_vacuous=not math.isfinite(raw) or raw > 1.0,
    )
