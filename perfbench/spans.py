"""In-memory span recording around trustsat's layer boundaries.

The program is left unmodified: each traced function is replaced, for the
duration of one command, by a wrapper installed on the module attribute its
caller looks up (``trustsat.editing.delta_init``, not
``trustsat.selection.delta_init``, because ``editing`` imported the name).
A wrapper records a span (name, start, end, parent) and, for a few
functions, derives counters from the arguments and result. Counters marked
*computed* below are derived from array sizes, not measured, and repeat
exactly from run to run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter as clock

import numpy as np

LAYERS = ("cli", "experiments", "editing", "selection", "satisfaction", "kernels", "graph")

# counters derived from array sizes and call results, not measured
COMPUTED = (
    "kernels.propagate_scores.edge_visits",
    "kernels.injection_scan.cells",
    "selection.delta_bytes_peak",
    "graph.edges_rebuilt",
    "editing.trust_update.useful_ratio",
)


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.sessions: list = []  # SessionLog objects returned to the CLI
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


# --- counter hooks: (recorder, positional args, result) --------------------


def _on_solve(rec, args, sv):
    rec.counters["satisfaction.sweeps"] += sv.iterations_used
    rec.counters["satisfaction.unconverged"] += not sv.converged


def _on_propagate(rec, args, result):
    indptr, update, iterations = args[0], args[3], result[0]
    rec.counters["kernels.propagate_scores.edge_visits"] += (
        int(np.diff(indptr)[update].sum()) * int(iterations)
    )


def _on_scan(rec, args, result):
    rec.counters["kernels.injection_scan.cells"] += int(args[1].shape[0]) ** 2


def _on_delta_init(rec, args, dm):
    _peak(rec, "selection.delta_bytes_peak", dm.delta.nbytes)


def _on_delta_promote(rec, args, dm):
    # the input table is still alive while the promoted one is built
    _peak(rec, "selection.delta_bytes_peak", args[0].delta.nbytes + dm.delta.nbytes)


def _peak(rec, key, value):
    rec.counters[key] = max(rec.counters[key], value)


def _on_trust_update(rec, args, g_new):
    g_old, state = args[0], args[1]
    if g_new is not g_old:
        rec.counters["editing.trust_pairs_changed"] += 2 * (len(state.ratings) - 1)


def _on_build(rec, args, g):
    rec.counters["graph.edges_rebuilt"] += g.n_edges


def _on_session(rec, args, log):
    rec.sessions.append(log)


# (module, attribute as the caller looks it up, span name, counter hook)
TARGETS = (
    ("trustsat.cli", "main", "cli.main", None),
    ("trustsat.cli", "load_graph", "graph.load_graph", None),
    ("trustsat.cli", "run_session", "editing.run_session", _on_session),
    ("trustsat.experiments", "sweep_rater_fraction", "experiments.sweep_rater_fraction", None),
    ("trustsat.experiments", "generate_erdos_renyi", "graph.generate_erdos_renyi", None),
    ("trustsat.experiments", "solve_iterative", "satisfaction.solve_iterative", _on_solve),
    ("trustsat.editing", "solve_iterative", "satisfaction.solve_iterative", _on_solve),
    ("trustsat.selection", "solve_iterative", "satisfaction.solve_iterative", _on_solve),
    ("trustsat.satisfaction", "reachability_mask", "satisfaction.reachability_mask", None),
    ("trustsat.satisfaction", "compute_weights", "satisfaction.compute_weights", None),
    ("trustsat.editing", "compute_weights", "satisfaction.compute_weights", None),
    ("trustsat.selection", "compute_weights", "satisfaction.compute_weights", None),
    ("trustsat._kernels", "propagate_scores", "kernels.propagate_scores", _on_propagate),
    ("trustsat._kernels", "influence_columns", "kernels.influence_columns", None),
    ("trustsat._kernels", "injection_scan", "kernels.injection_scan", _on_scan),
    ("trustsat.editing", "delta_init", "selection.delta_init", _on_delta_init),
    ("trustsat.editing", "delta_promote", "selection.delta_promote", _on_delta_promote),
    ("trustsat.editing", "marginal_greedy_fast", "selection.marginal_greedy_fast", None),
    ("trustsat.editing", "select_marginal_greedy", "selection.select_marginal_greedy", None),
    ("trustsat.editing", "select_trust_greedy", "selection.select_trust_greedy", None),
    ("trustsat.editing", "apply_rater_trust_updates", "editing.apply_rater_trust_updates", _on_trust_update),
    ("trustsat.editing", "build_graph", "graph.build_graph", _on_build),
)


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore
    them. ``replacements`` maps (module name, attribute) to a function of
    the original that returns the replacement; absent attributes are
    skipped (see ``absent_targets``)."""
    saved = []
    try:
        for (mod_name, attr), make in replacements.items():
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, make(saved[-1][2]))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def tracing(rec: Recorder):
    return patched(
        {
            (mod, attr): functools.partial(rec.wrap, name, hook=hook)
            for mod, attr, name, hook in TARGETS
        }
    )


def absent_targets() -> list[str]:
    """Traced functions this version of trustsat does not have; their
    metrics read 0."""
    return [
        f"{mod}.{attr}" for mod, attr, _name, _hook in TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]


# --- per-layer metrics ------------------------------------------------------


def _span_table(rec: Recorder):
    """{span name: [total s, self s, calls]} with self = duration minus the
    time covered by direct children."""
    child = [0.0] * len(rec.spans)
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (name, start, end, _parent) in enumerate(rec.spans):
        row = table[name]
        row[0] += end - start
        row[1] += end - start - child[i]
        row[2] += 1
    return table


def _round_ms(rec: Recorder) -> np.ndarray:
    """Per-round wall time: a session round ends with the solve that
    run_session issues directly, so rounds are the gaps between the ends of
    consecutive such solves."""
    sessions = {i for i, s in enumerate(rec.spans) if s[0] == "editing.run_session"}
    ends = [s[2] for s in rec.spans if s[0] == "satisfaction.solve_iterative" and s[3] in sessions]
    return np.diff(ends) * 1e3 if len(ends) > 1 else np.zeros(1)


def _progress_ratio(rec: Recorder) -> float:
    """Rounds that raised the satisfied count, over rounds (the count
    before the first round is 0: no rater, all scores 0)."""
    raised = rounds = 0
    for log in rec.sessions:
        prev = 0
        for r in log.rounds:
            raised += r.satisfied > prev
            prev = r.satisfied
        rounds += len(log.rounds)
    return raised / rounds if rounds else 0.0


def layer_metrics(rec: Recorder, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command that took ``wall`` seconds.
    Layer shares use self time, so they add up to the traced wall time."""
    spans = _span_table(rec)  # a span never entered reads [0.0, 0.0, 0]

    def total(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][1]

    def calls(name):
        return spans[name][2]

    cnt = rec.counters
    rounds = _round_ms(rec)
    rebuilt = cnt["graph.edges_rebuilt"]

    m = {
        "graph.generate_erdos_renyi.s": (total("graph.generate_erdos_renyi"), "s"),
        "graph.generate_erdos_renyi.share": (total("graph.generate_erdos_renyi") / wall, "ratio"),
        "graph.load_graph.s": (total("graph.load_graph"), "s"),
        "graph.build_graph.s": (total("graph.build_graph"), "s"),
        "graph.build_graph.calls": (calls("graph.build_graph"), "count"),
        "graph.build_graph.share": (total("graph.build_graph") / wall, "ratio"),
        "graph.edges_rebuilt": (rebuilt, "count"),
        "satisfaction.solve_iterative.s": (total("satisfaction.solve_iterative"), "s"),
        "satisfaction.solve_iterative.self_s": (self_s("satisfaction.solve_iterative"), "s"),
        "satisfaction.solve_iterative.calls": (calls("satisfaction.solve_iterative"), "count"),
        "satisfaction.reachability_mask.s": (total("satisfaction.reachability_mask"), "s"),
        "satisfaction.reachability_mask.share": (total("satisfaction.reachability_mask") / wall, "ratio"),
        "satisfaction.compute_weights.s": (total("satisfaction.compute_weights"), "s"),
        "satisfaction.compute_weights.share": (total("satisfaction.compute_weights") / wall, "ratio"),
        "satisfaction.sweeps": (cnt["satisfaction.sweeps"], "count"),
        "satisfaction.unconverged": (cnt["satisfaction.unconverged"], "count"),
        "kernels.propagate_scores.s": (total("kernels.propagate_scores"), "s"),
        "kernels.propagate_scores.calls": (calls("kernels.propagate_scores"), "count"),
        "kernels.propagate_scores.share": (total("kernels.propagate_scores") / wall, "ratio"),
        "kernels.propagate_scores.edge_visits": (cnt["kernels.propagate_scores.edge_visits"], "count"),
        "kernels.influence_columns.s": (total("kernels.influence_columns"), "s"),
        "kernels.influence_columns.share": (total("kernels.influence_columns") / wall, "ratio"),
        "kernels.injection_scan.s": (total("kernels.injection_scan"), "s"),
        "kernels.injection_scan.share": (total("kernels.injection_scan") / wall, "ratio"),
        "kernels.injection_scan.cells": (cnt["kernels.injection_scan.cells"], "count"),
        "selection.delta_init.s": (total("selection.delta_init"), "s"),
        "selection.delta_promote.s": (total("selection.delta_promote"), "s"),
        "selection.delta_promote.self_s": (self_s("selection.delta_promote"), "s"),
        "selection.delta_promote.calls": (calls("selection.delta_promote"), "count"),
        "selection.delta_promote.share": (total("selection.delta_promote") / wall, "ratio"),
        "selection.delta_bytes_peak": (cnt["selection.delta_bytes_peak"], "B"),
        "selection.marginal_greedy_fast.self_s": (self_s("selection.marginal_greedy_fast"), "s"),
        "selection.select_trust_greedy.s": (total("selection.select_trust_greedy"), "s"),
        "selection.progress_ratio": (_progress_ratio(rec), "ratio"),
        "editing.run_session.self_s": (self_s("editing.run_session"), "s"),
        "editing.apply_rater_trust_updates.s": (total("editing.apply_rater_trust_updates"), "s"),
        "editing.apply_rater_trust_updates.self_s": (self_s("editing.apply_rater_trust_updates"), "s"),
        "editing.apply_rater_trust_updates.calls": (calls("editing.apply_rater_trust_updates"), "count"),
        "editing.apply_rater_trust_updates.share": (total("editing.apply_rater_trust_updates") / wall, "ratio"),
        "editing.trust_update.useful_ratio": (
            cnt["editing.trust_pairs_changed"] / rebuilt if rebuilt else 0.0, "ratio"),
        "editing.rounds": (sum(len(log.rounds) for log in rec.sessions), "count"),
        "editing.round_ms.p50": (float(np.percentile(rounds, 50)), "ms"),
        "editing.round_ms.p90": (float(np.percentile(rounds, 90)), "ms"),
        "experiments.sweep_rater_fraction.self_s": (self_s("experiments.sweep_rater_fraction"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    layer_self = defaultdict(float)
    for name, (_tot, own, _n) in spans.items():
        layer_self[name.split(".", 1)[0]] += own
    for layer in LAYERS:
        m[f"layer.{layer}.share"] = (layer_self[layer] / wall, "ratio")
    return m
