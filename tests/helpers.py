"""Shared builders for randomized test instances."""
from __future__ import annotations

import numpy as np

# pass/fail lines collected by the acceptance suite; echoed after the run
ACCEPTANCE_REPORT: list[str] = []

from trustsat import _kernels
from trustsat import (
    ConstantTrust,
    ErdosRenyiSpec,
    SessionState,
    UniformTrust,
    generate_erdos_renyi,
)


def random_graph(rng, n=None, lam=None, trust=(0.1, 0.8), n_range=(20, 80), lam_range=(2.0, 8.0)):
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    if lam is None:
        lam = float(rng.uniform(*lam_range))
    if isinstance(trust, tuple):
        dist = UniformTrust(*trust)
    else:
        dist = ConstantTrust(trust)
    p = min(lam / n, 1.0)
    return generate_erdos_renyi(ErdosRenyiSpec(n, p, dist, int(rng.integers(2**62))))


def random_state(
    rng,
    n,
    k=(0.05, 0.3),
    alpha=0.5,
    common_rating=None,
    thresholds=(0.05, 0.95),
    min_raters=1,
):
    if isinstance(k, tuple):
        k = float(rng.uniform(*k))
    n_raters = max(min_raters, int(round(k * n)))
    raters = rng.choice(n, size=min(n_raters, n), replace=False)
    if common_rating is None:
        ratings = {int(i): float(rng.uniform(0.0, 1.0)) for i in raters}
    else:
        ratings = {int(i): float(common_rating) for i in raters}
    if isinstance(thresholds, tuple):
        b = rng.uniform(thresholds[0], thresholds[1], size=n)
    else:
        b = np.full(n, float(thresholds))
    return SessionState(ratings, b, alpha)


def count_sweep_layouts(monkeypatch) -> list:
    """Patch ``_kernels.SweepLayout`` to record each layout it builds.
    Returns the list it appends the built layouts to."""
    built = []

    class CountedLayout(_kernels.SweepLayout):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(_kernels, "SweepLayout", CountedLayout)
    return built
