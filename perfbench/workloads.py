"""The three protocol workloads: inputs made from the seed, the CLI command
each one times, and the checks its output must pass.

Inputs come from the benchmark's own generator, so they stay the same when
the program's generator changes. A session gets only the graph file; the
sweep gets only its flags (the CLI generates its graphs from ``--seed``).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

THRESHOLD = 0.2
K_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4)  # rater fractions of the sweep
SWEEP_SEEDS = 3  # graphs per sweep
ORACLE_ROUNDS = 24  # sampled session rounds checked against the dense oracle
RESIDUAL_LIMIT = 1e-9  # 10x the solver's default stopping tolerance


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI subcommand and flags, without input and output paths
    nodes: int = 0  # > 0: a G(nodes, avg_degree / nodes) graph file is the input
    avg_degree: float = 0.0
    max_rounds: Optional[int] = None  # session round budget (--max-rounds)

    @property
    def is_session(self) -> bool:
        return self.args[0] == "session"

    @property
    def solves(self) -> int:
        """Solves in one sweep command."""
        return len(K_GRID) * SWEEP_SEEDS

    def argv(self, seed: int, work: Path) -> list[str]:
        out = ["-o", str(work / "out.csv")]
        if self.is_session:
            budget = ["--max-rounds", str(self.max_rounds)] if self.max_rounds else []
            return [*self.args, *budget, "--graph", str(graph_path(work)), *out]
        return [*self.args, "--seed", str(seed), *out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-k",
            ("sweep-k", "--nodes", "20000", "--avg-degree", "30", "--trust", "uniform",
             "--b", str(THRESHOLD), "--k-grid", ",".join(map(str, K_GRID)),
             "--num-seeds", str(SWEEP_SEEDS)),
        ),
        Workload(
            "session-marginal",
            ("session", "--strategy", "marginal", "--b", str(THRESHOLD)),
            nodes=1000,
            avg_degree=10.0,
        ),
        # A fixed round budget keeps the cost of a run independent of how
        # many raters the seed's graph needs to publish (144 to 420 at
        # n = 500 for seeds 1-8): 80 rounds on n = 1000 end well before
        # publication. Short commands give the median many samples.
        Workload(
            "session-trust-update",
            ("session", "--strategy", "trust", "--trust-update", "0.5,16", "--b", str(THRESHOLD)),
            nodes=1000,
            avg_degree=10.0,
            max_rounds=80,
        ),
    )
}


# --- inputs -----------------------------------------------------------------


def graph_path(work: Path) -> Path:
    return work / "graph.csv"


def graph_edges(n: int, avg_degree: float, seed: int):
    """Directed G(n, avg_degree / n) with trust uniform on (0, 1], row by
    row, as (src, dst, trust) arrays."""
    rng = np.random.default_rng([seed, n])
    p = avg_degree / n
    src, dst = [], []
    for i in range(n):
        picks = rng.choice(n - 1, size=rng.binomial(n - 1, p), replace=False)
        picks.sort()
        dst.append(picks + (picks >= i))
        src.append(np.full(picks.size, i))
    src, dst = np.concatenate(src), np.concatenate(dst)
    return src, dst, 1.0 - rng.random(src.size)


def write_input(w: Workload, seed: int, work: Path) -> None:
    """Write the workload's input file, if it has one."""
    if not w.nodes:
        return
    src, dst, trust = graph_edges(w.nodes, w.avg_degree, seed)
    lines = [f"nodes,{w.nodes}\n"]
    lines += [f"{s},{d},{t!r}\n" for s, d, t in zip(src.tolist(), dst.tolist(), trust.tolist())]
    graph_path(work).write_text("".join(lines), encoding="utf-8")


# --- outputs ----------------------------------------------------------------


def parse_csv(text: str):
    """(header echo dict, data rows as string lists, trailing comments)."""
    echo, rows, tail = {}, [], []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line and not rows:
            key, _, value = line[2:].partition(" = ")
            echo[key] = value
        elif line.startswith("#"):
            tail.append(line[1:].strip())
        elif line and line[0].isdigit():
            rows.append(line.split(","))
    return echo, rows, tail


def op_count(w: Workload, output: str) -> int:
    """Rounds for a session, solves (grid points x graph seeds) for a sweep."""
    echo, rows, _ = parse_csv(output)
    if w.is_session:
        return len(rows)
    return len(rows) * int(echo.get("num_seeds", 0))


def session_summary(output: str) -> tuple[str, int]:
    _, rows, tail = parse_csv(output)
    status = next((t.partition("=")[2] for t in tail if t.startswith("status=")), "missing")
    return status, len(rows)


def check_session(w: Workload, seed: int, output: str, stdout: str) -> list[str]:
    """Problems with a session CSV: its end, its bookkeeping, and, at sampled
    rounds, its satisfied count against the dense oracle on the input graph.
    Trust updates only touch rater-rater edges, which never enter a score, so
    the input graph is the right oracle graph for both sessions."""
    from trustsat import SessionState, build_graph, satisfied_count, solve_dense_oracle

    n = w.nodes
    status, n_rounds = session_summary(output)
    _, rows, _ = parse_csv(output)
    problems = []
    if status != "published" and not (status == "budget_exhausted" and n_rounds == w.max_rounds):
        problems.append(f"session ended with status={status} after {n_rounds} rounds")
    if f"status={status} raters={n_rounds}" not in stdout:
        problems.append(f"CLI summary {stdout.strip()!r} disagrees with the CSV")
    if not rows:
        return problems + ["no rounds"]
    rounds = [int(r[0]) for r in rows]
    raters = [int(r[1]) for r in rows]
    ratings = [float(r[2]) for r in rows]
    satisfied = [int(r[3]) for r in rows]
    if rounds != list(range(1, n_rounds + 1)):
        problems.append("round numbers are not 1..R")
    if len(set(raters)) != n_rounds:
        problems.append("a rater was chosen twice")
    if any(abs(float(r[4]) - s / n) > 1e-9 for r, s in zip(rows, satisfied)):
        problems.append("fraction column disagrees with satisfied / nodes")

    g = build_graph(n, np.column_stack(graph_edges(n, w.avg_degree, seed)))
    rng = np.random.default_rng([seed, 1])
    sampled = sorted(set(rng.choice(n_rounds, min(ORACLE_ROUNDS, n_rounds), replace=False) + 1) | {n_rounds})
    for r in sampled:
        state = SessionState(dict(zip(raters[:r], ratings[:r])), np.full(n, THRESHOLD), 0.5)
        want, _ = satisfied_count(solve_dense_oracle(g, state), state.thresholds)
        if want != satisfied[r - 1]:
            problems.append(f"round {r}: CSV satisfied={satisfied[r - 1]}, dense oracle {want}")
    return problems


# --- the sweep --------------------------------------------------------------


class SweepCapture:
    """Observes the sweep's solves while the CLI runs: the unsatisfied
    fraction of every (graph seed, k) solve in call order. The graph, state
    and scores of one chosen solve are written to ``keep_file`` at once, so
    that the observed command holds no more memory than an unobserved one."""

    def __init__(self, keep_index: int, keep_file: Path):
        self.keep_index = keep_index
        self.keep_file = keep_file
        self.unsatisfied: list[float] = []

    def wrap(self, solve_iterative):
        def observed(g, state, *args, **kwargs):
            sv = solve_iterative(g, state, *args, **kwargs)
            if len(self.unsatisfied) == self.keep_index:
                np.savez(
                    self.keep_file, n_nodes=g.n_nodes, out_indptr=g.out_indptr,
                    out_indices=g.out_indices, out_trust=g.out_trust,
                    raters=np.fromiter(state.ratings.keys(), dtype=np.int64),
                    ratings=np.fromiter(state.ratings.values(), dtype=np.float64),
                    thresholds=state.thresholds, alpha=state.alpha, scores=sv.scores,
                )
            self.unsatisfied.append(1.0 - np.count_nonzero(sv.scores > state.thresholds) / g.n_nodes)
            return sv

        return observed

    def kept(self):
        """(graph, state, scores) of the chosen solve, or None if it was not
        observed. The graph carries only what ``independent_solve`` reads."""
        from trustsat import SessionState

        if not self.keep_file.exists():
            return None
        with np.load(self.keep_file) as z:
            g = SimpleNamespace(n_nodes=int(z["n_nodes"]), out_indptr=z["out_indptr"],
                                out_indices=z["out_indices"], out_trust=z["out_trust"])
            state = SessionState(dict(zip(z["raters"].tolist(), z["ratings"].tolist())),
                                 z["thresholds"], float(z["alpha"]))
            return g, state, z["scores"]


def independent_solve(g, state):
    """Scores for ``state`` on ``g`` from scipy alone: weights from the
    model's formula, reachability by BFS over the transpose, and a GMRES
    solve of (I - W_FF) x = W_FR r. Returns (scores, A, rhs, free, q, info)
    where q < 1 bounds the row sums of W_FF, so that any x has
    |x - x*| <= |A x - rhs| / (1 - q), and info is GMRES's status (0: met
    its tolerance)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order
    from scipy.sparse.linalg import gmres

    n = g.n_nodes
    src = np.repeat(np.arange(n), np.diff(g.out_indptr))
    dst, t = np.asarray(g.out_indices), np.asarray(g.out_trust)
    rating = np.zeros(n)
    is_rater = np.zeros(n, dtype=bool)
    for node, r in state.ratings.items():
        rating[node], is_rater[node] = r, True
    f = np.where(is_rater[dst], state.alpha, 1.0 - state.alpha)
    w = t * t * f / np.bincount(src, weights=t * f, minlength=n)[src]

    # who can reach a rater: BFS from a virtual node n that points at every
    # rater, over reversed trust edges
    raters = np.flatnonzero(is_rater)
    rev = sp.csr_matrix(
        (np.ones(dst.size + raters.size), (np.r_[dst, np.full(raters.size, n)], np.r_[src, raters])),
        shape=(n + 1, n + 1),
    )
    reach = np.zeros(n + 1, dtype=bool)
    reach[breadth_first_order(rev, n, directed=True, return_predecessors=False)] = True
    free = np.flatnonzero(reach[:n] & ~is_rater)

    W = sp.csr_matrix((w, (src, dst)), shape=(n, n))[free]
    w_ff = W[:, free]
    rhs = W[:, raters] @ rating[raters]
    A = (sp.eye(free.size, format="csr") - w_ff).tocsr()
    x, info = gmres(A, rhs, rtol=1e-14, atol=0.0, restart=100, maxiter=100)
    scores = np.where(is_rater, rating, 0.0)
    scores[free] = x
    q = float(np.max(np.asarray(w_ff.sum(axis=1)).ravel(), initial=0.0))
    return scores, A, rhs, free, q, info


def check_point(kept) -> list[str]:
    """The kept sweep solve against the independent scipy solve."""
    g, state, scores = kept
    ind, A, rhs, free, q, info = independent_solve(g, state)
    fixed = np.ones(g.n_nodes, dtype=bool)
    fixed[free] = False
    problems = [] if info == 0 else [f"the scipy reference solve did not converge (GMRES info={info})"]
    if not np.array_equal(scores[fixed], ind[fixed]):
        problems.append("raters or unreachable nodes differ from the model (rating / 0)")
    resid_prog = float(np.max(np.abs(A @ scores[free] - rhs), initial=0.0))
    resid_ind = float(np.max(np.abs(A @ ind[free] - rhs), initial=0.0))
    if resid_prog > RESIDUAL_LIMIT:
        problems.append(f"program scores leave residual {resid_prog:.3g} in the independent system")
    # both solutions lie within resid / (1 - q) of the exact one; only nodes
    # farther than that from the threshold have a certain side
    margin = (resid_prog + resid_ind) / (1.0 - q) + 1e-12
    sure = np.abs(ind - state.thresholds) > margin
    disagree = int(np.count_nonzero(((scores > state.thresholds) != (ind > state.thresholds)) & sure))
    if disagree:
        problems.append(f"{disagree} nodes satisfied on one side only")
    return problems


def check_sweep(output: str, capture: SweepCapture) -> list[str]:
    """Problems with a sweep CSV: rows in [0, 1] and non-increasing in k,
    rows equal to the mean of the observed per-seed solves, and one
    (graph seed, k) point matching the independent scipy solve."""
    problems = []
    echo, rows, _ = parse_csv(output)
    seeds = int(echo.get("num_seeds", 0))
    means = [float(r[1]) for r in rows]
    if not rows or any(not 0.0 <= m <= 1.0 for m in means):
        problems.append("mean unsatisfied fractions missing or outside [0, 1]")
    if any(b > a for a, b in zip(means, means[1:])):
        problems.append(f"mean unsatisfied fraction rises with k: {means}")
    if len(capture.unsatisfied) != len(rows) * seeds:
        return problems + [f"observed {len(capture.unsatisfied)} solves, expected {len(rows) * seeds}"]
    per_seed = np.array(capture.unsatisfied).reshape(seeds, len(rows))
    if np.any(np.abs(per_seed.mean(axis=0) - means) > 1e-9):
        problems.append("CSV means differ from the observed per-seed solves")
    kept = capture.kept()
    if kept is None:
        return problems + ["the chosen solve was not observed"]
    return problems + check_point(kept)
