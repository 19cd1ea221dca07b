"""Command-line front end.

Subcommands: generate, solve, session, sweep-k, sweep-p, compare, bounds,
cdf. Flags can come from a flat ``key = value`` config file via --config;
explicit flags win. Exit codes: 0 success, 2 usage, 3 validation, 4 runtime.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional

import numpy as np

from . import experiments
from .analytics import ModelParams, empirical_satisfaction_cdf
from .editing import EditingConfig, TrustUpdateConfig, run_session
from .errors import ParseError, TrustSatError, ValidationError
from .graph import (
    ConstantTrust,
    ErdosRenyiSpec,
    UniformTrust,
    generate_erdos_renyi,
    load_graph,
    load_thresholds,
    mean_out_degree,
    save_graph,
)
from .satisfaction import SessionState, SolverConfig, satisfied_count, solve_iterative
from .selection import SelectionStrategy


def _positive_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _pair(text: str) -> tuple[float, float]:
    parts = _float_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return parts[0], parts[1]


def _trust_dist(args):
    if args.trust == "constant":
        return ConstantTrust(args.trust_value)
    lo, hi = args.trust_range
    return UniformTrust(lo, hi)


def _edge_prob(args) -> float:
    if args.p is not None and args.avg_degree is not None:
        raise ValidationError("give either --p or --avg-degree, not both")
    if args.p is not None:
        return args.p
    if args.avg_degree is not None:
        return args.avg_degree / args.nodes
    raise ValidationError("one of --p or --avg-degree is required")


def _solver(args) -> SolverConfig:
    return SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iters)


def _thresholds(args, n: int, rng: Optional[np.random.Generator] = None):
    given = sum(x is not None for x in (args.thresholds, args.b, getattr(args, "b_truncnorm", None)))
    if given > 1:
        raise ValidationError("give at most one of --thresholds, --b, --b-truncnorm")
    if args.thresholds is not None:
        b = load_thresholds(args.thresholds)
        if b.shape[0] != n:
            raise ValidationError(f"threshold file covers {b.shape[0]} nodes, graph has {n}")
        return b, {"thresholds": args.thresholds}
    if getattr(args, "b_truncnorm", None) is not None:
        mean, var = args.b_truncnorm
        rng = rng if rng is not None else np.random.default_rng(args.seed)
        b, got_mean, got_var = experiments.truncated_normal_thresholds(n, rng, mean, var)
        return b, {"b_truncnorm": f"mean={mean},var={var}", "b_achieved_mean": f"{got_mean:.6g}", "b_achieved_var": f"{got_var:.6g}"}
    b = args.b if args.b is not None else 0.2
    return np.full(n, b), {"b": b}


def _echo(args, extra: Optional[dict] = None) -> dict:
    skip = {"func", "config"}
    out = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if extra:
        out.update(extra)
    return out


def _load_raters(path) -> dict[int, float]:
    ratings: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 'node,rating', got {line!r}", lineno)
            try:
                node, rating = int(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError(f"malformed rater fields {line!r}", lineno) from None
            if node in ratings:
                raise ParseError(f"duplicate rating for node {node}", lineno)
            ratings[node] = rating
    return ratings


def _out_stream(args):
    return open(args.out, "w", encoding="utf-8") if args.out else sys.stdout


def cmd_generate(args) -> int:
    spec = ErdosRenyiSpec(args.nodes, _edge_prob(args), _trust_dist(args), args.seed)
    g = generate_erdos_renyi(spec)
    save_graph(g, args.out)
    print(f"nodes={g.n_nodes} edges={g.n_edges} mean_out_degree={mean_out_degree(g):.6g}")
    return 0


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    b, b_echo = _thresholds(args, g.n_nodes)
    if (args.raters is None) == (args.rater_fraction is None):
        raise ValidationError("give exactly one of --raters or --rater-fraction")
    if args.raters is not None:
        ratings = _load_raters(args.raters)
    else:
        rng = np.random.default_rng(args.seed)
        n_r = int(round(args.rater_fraction * g.n_nodes))
        chosen = rng.permutation(g.n_nodes)[:n_r]
        ratings = {int(i): args.rating for i in chosen}
    state = SessionState(ratings, b, args.alpha)
    sv = solve_iterative(g, state, _solver(args))
    count, mask = satisfied_count(sv, b)
    rows = [(i, float(sv.scores[i]), int(mask[i])) for i in range(g.n_nodes)]
    experiments.write_csv(
        args.out or "/dev/stdout", ["node", "score", "satisfied"], rows, _echo(args, b_echo)
    )
    print(f"satisfied_fraction={count / g.n_nodes:.12g} iterations={sv.iterations_used} converged={sv.converged}")
    return 0


def cmd_session(args) -> int:
    g = load_graph(args.graph)
    b, b_echo = _thresholds(args, g.n_nodes)
    tu = TrustUpdateConfig(*args.trust_update) if args.trust_update else None
    cfg = EditingConfig(
        strategy=SelectionStrategy(args.strategy, assumed_rating=args.rating),
        publish_fraction=args.eta,
        max_rounds=args.max_rounds,
        rating_source=args.rating,
        trust_update=tu,
        alpha=args.alpha,
    )
    log = run_session(g, b, cfg, _solver(args), np.random.default_rng(args.seed))
    stream = _out_stream(args)
    with stream if stream is not sys.stdout else contextlib.nullcontext(stream) as f:
        for key, value in _echo(args, b_echo).items():
            f.write(f"# {key} = {value}\n")
        log.write_csv(f)
    print(f"status={log.status} raters={log.raters_used()}")
    return 0


def cmd_sweep_k(args) -> int:
    rng = np.random.default_rng(args.seed)
    b, b_echo = _thresholds(args, args.nodes, rng)
    seeds = args.seeds if args.seeds else [args.seed + i for i in range(args.num_seeds)]
    rows = experiments.sweep_rater_fraction(
        args.nodes,
        _edge_prob(args),
        _trust_dist(args),
        b,
        args.rating,
        args.k_grid,
        seeds,
        _solver(args),
        alpha=args.alpha,
    )
    experiments.write_csv(
        args.out or "/dev/stdout",
        ["k", "mean_unsatisfied", "stderr"],
        [(r.value, r.mean, r.stderr) for r in rows],
        _echo(args, dict(b_echo, seeds=",".join(map(str, seeds)))),
    )
    return 0


def cmd_sweep_p(args) -> int:
    rng = np.random.default_rng(args.seed)
    b, b_echo = _thresholds(args, args.nodes, rng)
    seeds = args.seeds if args.seeds else [args.seed + i for i in range(args.num_seeds)]
    rows = experiments.sweep_edge_prob(
        args.nodes,
        args.p_grid,
        _trust_dist(args),
        b,
        args.rating,
        args.k,
        seeds,
        _solver(args),
        alpha=args.alpha,
    )
    experiments.write_csv(
        args.out or "/dev/stdout",
        ["p", "mean_unsatisfied", "stderr"],
        [(r.value, r.mean, r.stderr) for r in rows],
        _echo(args, dict(b_echo, seeds=",".join(map(str, seeds)))),
    )
    return 0


def cmd_compare(args) -> int:
    rng = np.random.default_rng(args.seed)
    b, b_echo = _thresholds(args, args.nodes, rng)
    seeds = args.seeds if args.seeds else [args.seed + i for i in range(args.num_seeds)]
    runs = experiments.compare_strategies(
        args.nodes,
        _edge_prob(args),
        _trust_dist(args),
        b,
        args.rating,
        seeds,
        strategies=args.strategies,
        cfg=_solver(args),
        publish_fraction=args.eta,
        max_rounds=args.max_rounds,
    )
    rows = []
    for run in runs:
        for r in run.log.rounds:
            rows.append((run.strategy, run.seed, r.round, r.satisfied, r.fraction))
    experiments.write_csv(
        args.out or "/dev/stdout",
        ["strategy", "seed", "raters", "satisfied", "fraction"],
        rows,
        _echo(args, dict(b_echo, seeds=",".join(map(str, seeds)))),
    )
    medians = experiments.median_raters_to_publish(runs)
    for name in args.strategies:
        print(f"{name}: median_raters_to_publish={medians.get(name)}")
    return 0


def cmd_bounds(args) -> int:
    params = ModelParams(
        mean_degree=args.mean_degree,
        trust=args.t,
        rating=args.rating,
        rater_fraction=0.0,
        threshold=args.b if args.b is not None else 0.2,
    )
    empirical = None
    if args.empirical:
        if args.nodes is None:
            raise ValidationError("--empirical requires --nodes")
        seeds = args.seeds if args.seeds else [args.seed + i for i in range(args.num_seeds)]

        def empirical(share: float) -> float:
            return experiments.empirical_k_for_target(
                args.nodes,
                args.mean_degree / args.nodes,
                ConstantTrust(args.t),
                params.threshold,
                args.rating,
                share,
                seeds,
                _solver(args),
            )

    rows = experiments.bounds_table(params, args.t_grid, empirical)
    cols = ["T", "k_min", "k_max"] + (["k_hat"] if args.empirical else [])
    experiments.write_csv(
        args.out or "/dev/stdout",
        cols,
        [
            (r.share, r.k_min, r.k_max) + ((r.k_hat,) if args.empirical else ())
            for r in rows
        ],
        _echo(args),
    )
    return 0


def cmd_cdf(args) -> int:
    edge_prob = _edge_prob(args)
    params = ModelParams(
        mean_degree=edge_prob * args.nodes,
        trust=args.t,
        rating=args.rating,
        rater_fraction=args.k,
        threshold=args.b if args.b is not None else 0.2,
    )
    spec = ErdosRenyiSpec(args.nodes, edge_prob, ConstantTrust(args.t), args.seed)
    table = empirical_satisfaction_cdf(
        spec, params, args.trials, _solver(args), np.random.default_rng(args.seed)
    )
    experiments.write_csv(
        args.out or "/dev/stdout",
        ["x", "F"],
        zip(table.x.tolist(), table.cdf.tolist()),
        _echo(args, {"n_samples": table.n_samples, "sample_mean": f"{table.sample_mean:.12g}",
                     "zero_fraction": f"{table.zero_fraction:.12g}"}),
    )
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.5, help="rater weight in [0.5, 1]")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=None)


def _add_graph_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--avg-degree", type=float, default=None, help="edge probability as D/nodes")
    p.add_argument("--trust", choices=("uniform", "constant"), default="uniform")
    p.add_argument("--trust-value", type=float, default=0.5, help="constant trust value")
    p.add_argument("--trust-range", type=_pair, default=(0.0, 1.0), help="uniform trust lo,hi")


def _add_threshold_flags(p: argparse.ArgumentParser, truncnorm: bool = False) -> None:
    p.add_argument("--b", type=float, default=None, help="constant threshold (default 0.2)")
    p.add_argument("--thresholds", default=None, help="per-node threshold file")
    if truncnorm:
        p.add_argument("--b-truncnorm", type=_pair, default=None, help="mean,var of truncated normal thresholds")


def _add_seed_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=_positive_int_list, default=None, help="comma list of seeds")
    p.add_argument("--num-seeds", type=int, default=10, help="seed count when --seeds is absent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trustsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random trust graph as an edge list")
    _add_graph_gen_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="satisfaction scores for a given rater set")
    p.add_argument("--graph", required=True)
    _add_threshold_flags(p)
    p.add_argument("--raters", default=None, help="file of node,rating lines")
    p.add_argument("--rater-fraction", type=float, default=None)
    p.add_argument("--rating", type=float, default=1.0, help="rating used with --rater-fraction")
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("session", help="run one collaborative review session")
    p.add_argument("--graph", required=True)
    _add_threshold_flags(p)
    p.add_argument("--strategy", choices=("random", "trust", "marginal"), default="random")
    p.add_argument("--eta", type=float, default=1.0, help="satisfied fraction required to publish")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--trust-update", type=_pair, default=None, help="gamma,sharpness")
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("sweep-k", help="unsatisfied fraction vs rater fraction")
    _add_graph_gen_flags(p)
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--k-grid", type=_float_list, default=[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
    _add_seed_pool_flags(p)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("sweep-p", help="unsatisfied fraction vs edge probability")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p-grid", type=_float_list, required=True)
    p.add_argument("--k", type=float, required=True, help="rater fraction")
    p.add_argument("--trust", choices=("uniform", "constant"), default="uniform")
    p.add_argument("--trust-value", type=float, default=0.5)
    p.add_argument("--trust-range", type=_pair, default=(0.0, 1.0))
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    _add_seed_pool_flags(p)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep_p)

    p = sub.add_parser("compare", help="race the selection strategies")
    _add_graph_gen_flags(p)
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--strategies", type=lambda s: s.split(","), default=["random", "trust", "marginal"])
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--max-rounds", type=int, default=None)
    _add_seed_pool_flags(p)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="necessary/sufficient rater fractions per target share")
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--t", type=float, required=True, help="common trust")
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", type=_float_list, default=[0.5, 0.7, 0.9])
    p.add_argument("--empirical", action="store_true", help="bisect the measured k alongside")
    p.add_argument("--nodes", type=int, default=None)
    _add_seed_pool_flags(p)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cdf", help="empirical score distribution of non-raters")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--avg-degree", type=float, default=None)
    p.add_argument("--t", type=float, default=0.5, help="common trust")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--trials", type=int, default=10)
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_cdf)

    return parser


def _load_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {line!r}", lineno)
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Pre-parse --config and install its values as subparser defaults so
    explicit flags still win."""
    if "--config" not in argv:
        return
    probe, _ = parser.parse_known_args(argv)
    if not getattr(probe, "config", None):
        return
    values = _load_config_file(probe.config)
    actions = {}
    for sub_action in parser._subparsers._group_actions:  # noqa: SLF001
        sub = sub_action.choices.get(probe.command)
        if sub is None:
            continue
        for action in sub._actions:  # noqa: SLF001
            actions[action.dest] = action
        defaults = {}
        for key, raw in values.items():
            action = actions.get(key)
            if action is None:
                raise ValidationError(f"unknown config key {key!r} for command {probe.command!r}")
            if isinstance(action, argparse._StoreTrueAction):  # noqa: SLF001
                defaults[key] = raw.lower() in ("1", "true", "yes")
            else:
                defaults[key] = action.type(raw) if action.type else raw
        sub.set_defaults(**defaults)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TrustSatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
