"""Command-line front end.

Subcommands: generate, solve, session, sweep-k, sweep-p, compare, bounds,
cdf. Flags can come from a flat ``key = value`` config file via --config;
explicit flags win. Every command but generate writes its CSV to -o, or to
stdout when -o is absent. Exit codes: 0 success, 2 usage, 3 validation,
4 runtime.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import editing, experiments
from .analytics import ModelParams, k_max_for_target, k_min_for_target
from .editing import EditingConfig, TrustUpdateConfig, run_session
from .errors import ParseError, TrustSatError, ValidationError
from .graph import (
    ConstantTrust,
    ErdosRenyiSpec,
    UniformTrust,
    _data_lines,
    generate_erdos_renyi,
    load_graph,
    load_thresholds,
    mean_out_degree,
    save_graph,
    write_csv,
)
from .satisfaction import DEFAULT_TOLERANCE, SessionState, SolverConfig, satisfied_count, solve_iterative
from .selection import STRATEGY_KINDS

DEFAULT_THRESHOLD = 0.2


def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return int(text)


def _seed_list(text: str) -> list[int]:
    return [_seed(x) for x in text.split(",") if x.strip()]


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
        return args.avg_degree / _nodes(args)
    raise ValidationError("one of --p or --avg-degree is required")


def _nodes(args) -> int:
    if args.nodes < 1:
        raise ValidationError(f"--nodes must be >= 1, got {args.nodes}")
    return args.nodes


def _solver(args) -> SolverConfig:
    return SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iters)


def _seed_pool(args) -> list[int]:
    """--seeds, or else --num-seeds consecutive seeds from --seed."""
    return args.seeds if args.seeds else [args.seed + i for i in range(args.num_seeds)]


def _thresholds(args, n: int):
    truncnorm = getattr(args, "b_truncnorm", None)
    given = sum(x is not None for x in (args.thresholds, args.b, truncnorm))
    if given > 1:
        raise ValidationError("give at most one of --thresholds, --b, --b-truncnorm")
    if args.thresholds is not None:
        b = load_thresholds(args.thresholds)
        if b.shape[0] != n:
            raise ValidationError(f"threshold file covers {b.shape[0]} nodes, graph has {n}")
        return b, {"thresholds": args.thresholds}
    if truncnorm is not None:
        mean, var = truncnorm
        rng = np.random.default_rng(args.seed)
        b, got_mean, got_var = experiments.truncated_normal_thresholds(n, rng, mean, var)
        return b, {"b_truncnorm": f"mean={mean},var={var}", "b_achieved_mean": f"{got_mean:.6g}", "b_achieved_var": f"{got_var:.6g}"}
    b = args.b if args.b is not None else DEFAULT_THRESHOLD
    return np.full(n, b), {"b": b}


def _echo(args, extra: Optional[dict] = None) -> dict:
    skip = {"func", "config"}
    out = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if extra:
        out.update(extra)
    return out


def _load_raters(path) -> dict[int, float]:
    ratings: dict[int, float] = {}
    for lineno, line in _data_lines(path):
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
        n_r = experiments.rater_count(args.rater_fraction, g.n_nodes)
        chosen = np.random.default_rng(args.seed).permutation(g.n_nodes)[:n_r]
        ratings = dict.fromkeys(chosen.tolist(), args.rating)
    state = SessionState(ratings, b, args.alpha)
    sv = solve_iterative(g, state, _solver(args))
    count, mask = satisfied_count(sv, b)
    rows = [(i, float(sv.scores[i]), int(mask[i])) for i in range(g.n_nodes)]
    write_csv(args.out or sys.stdout, ["node", "score", "satisfied"], rows, _echo(args, b_echo))
    print(f"satisfied_fraction={count / g.n_nodes:.12g} iterations={sv.iterations_used} converged={sv.converged}")
    return 0


def cmd_session(args) -> int:
    g = load_graph(args.graph)
    b, b_echo = _thresholds(args, g.n_nodes)
    tu = TrustUpdateConfig(*args.trust_update) if args.trust_update else None
    cfg = EditingConfig(
        strategy=args.strategy,
        assumed_rating=args.rating,
        publish_fraction=args.eta,
        max_rounds=args.max_rounds,
        rating_source=args.rating,
        alpha=args.alpha,
    )
    log = run_session(g, b, cfg, _solver(args), np.random.default_rng(args.seed))
    if tu is not None:
        editing.apply_rater_trust_updates(g, log.state, tu)  # the blended graph is not written out
    log.to_csv(args.out or sys.stdout, _echo(args, b_echo))
    print(f"status={log.status} raters={log.raters_used()}")
    return 0


def _write_sweep(args, column: str, rows, b_echo: dict, seeds: list[int]) -> None:
    write_csv(
        args.out or sys.stdout,
        [column, "mean_unsatisfied", "stderr"],
        [(r.value, r.mean, r.stderr) for r in rows],
        _echo(args, dict(b_echo, seeds=",".join(map(str, seeds)))),
    )


def cmd_sweep_k(args) -> int:
    b, b_echo = _thresholds(args, _nodes(args))
    seeds = _seed_pool(args)
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
    _write_sweep(args, "k", rows, b_echo, seeds)
    return 0


def cmd_sweep_p(args) -> int:
    b, b_echo = _thresholds(args, _nodes(args))
    seeds = _seed_pool(args)
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
    _write_sweep(args, "p", rows, b_echo, seeds)
    return 0


def cmd_compare(args) -> int:
    b, b_echo = _thresholds(args, _nodes(args))
    seeds = _seed_pool(args)
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
    write_csv(
        args.out or sys.stdout,
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
        threshold=args.b if args.b is not None else DEFAULT_THRESHOLD,
    )
    if args.empirical and args.nodes is None:
        raise ValidationError("--empirical requires --nodes")
    # every share is checked against the closed forms before any solve
    shares = experiments.check_grid(args.t_grid, "T").tolist()
    columns = [shares, [k_min_for_target(params, s) for s in shares], [k_max_for_target(params, s) for s in shares]]
    if args.empirical:
        columns.append(experiments.empirical_k_for_target(
            args.nodes,
            args.mean_degree / _nodes(args),
            ConstantTrust(args.t),
            params.threshold,
            args.rating,
            shares,
            _seed_pool(args),
            _solver(args),
        ))
    write_csv(
        args.out or sys.stdout,
        ["T", "k_min", "k_max"] + (["k_hat"] if args.empirical else []),
        zip(*columns),
        _echo(args),
    )
    return 0


def cmd_cdf(args) -> int:
    spec = ErdosRenyiSpec(_nodes(args), _edge_prob(args), ConstantTrust(args.t), args.seed)
    table = experiments.empirical_satisfaction_cdf(
        spec, args.k, args.rating, args.trials, _solver(args), np.random.default_rng(args.seed)
    )
    write_csv(
        args.out or sys.stdout,
        ["x", "F"],
        zip(table.x.tolist(), table.cdf.tolist()),
        _echo(args, {"n_samples": table.n_samples, "sample_mean": f"{table.sample_mean:.12g}",
                     "zero_fraction": f"{table.zero_fraction:.12g}"}),
    )
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-iters", type=int, default=None)


def _add_size_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--avg-degree", type=float, default=None, help="edge probability as D/nodes")


def _add_trust_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trust", choices=("uniform", "constant"), default="uniform")
    p.add_argument("--trust-value", type=float, default=0.5, help="constant trust value")
    p.add_argument("--trust-range", type=_pair, default=(0.0, 1.0), help="uniform trust lo,hi")


def _add_threshold_flags(p: argparse.ArgumentParser, truncnorm: bool = False) -> None:
    p.add_argument("--b", type=float, default=None, help=f"constant threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--thresholds", default=None, help="per-node threshold file")
    if truncnorm:
        p.add_argument("--b-truncnorm", type=_pair, default=None, help="mean,var of truncated normal thresholds")


def _add_seed_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=_seed_list, default=None, help="comma list of seeds")
    p.add_argument("--num-seeds", type=int, default=10, help="seed count when --seeds is absent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trustsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out_required=False):
        """A subcommand with the flags every command shares."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("-o", "--out", required=out_required, default=None)
        p.add_argument("--config", default=None)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a random trust graph as an edge list", out_required=True)
    _add_size_flags(p)
    _add_trust_flags(p)

    p = command("solve", cmd_solve, "satisfaction scores for a given rater set")
    p.add_argument("--graph", required=True)
    _add_threshold_flags(p)
    p.add_argument("--raters", default=None, help="file of node,rating lines")
    p.add_argument("--rater-fraction", type=float, default=None)
    p.add_argument("--rating", type=float, default=1.0, help="rating used with --rater-fraction")
    p.add_argument("--alpha", type=float, default=0.5, help="rater weight in [0.5, 1]")
    _add_solver_flags(p)

    p = command("session", cmd_session, "run one collaborative review session")
    p.add_argument("--graph", required=True)
    _add_threshold_flags(p)
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="random")
    p.add_argument("--eta", type=float, default=1.0, help="satisfied fraction required to publish")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--trust-update", type=_pair, default=None,
                   help="gamma,sharpness; the blended graph is computed but not written out")
    p.add_argument("--alpha", type=float, default=0.5, help="rater weight in [0.5, 1]")
    _add_solver_flags(p)

    p = command("sweep-k", cmd_sweep_k, "unsatisfied fraction vs rater fraction")
    _add_size_flags(p)
    _add_trust_flags(p)
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--k-grid", type=_float_list, default=[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
    _add_seed_pool_flags(p)
    p.add_argument("--alpha", type=float, default=0.5, help="rater weight in [0.5, 1]")
    _add_solver_flags(p)

    p = command("sweep-p", cmd_sweep_p, "unsatisfied fraction vs edge probability")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p-grid", type=_float_list, required=True)
    p.add_argument("--k", type=float, required=True, help="rater fraction")
    _add_trust_flags(p)
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    _add_seed_pool_flags(p)
    p.add_argument("--alpha", type=float, default=0.5, help="rater weight in [0.5, 1]")
    _add_solver_flags(p)

    p = command("compare", cmd_compare, "race the selection strategies")
    _add_size_flags(p)
    _add_trust_flags(p)
    _add_threshold_flags(p, truncnorm=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--strategies", type=lambda s: s.split(","), default=list(STRATEGY_KINDS))
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--max-rounds", type=int, default=None)
    _add_seed_pool_flags(p)
    _add_solver_flags(p)

    p = command("bounds", cmd_bounds, "necessary/sufficient rater fractions per target share")
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--t", type=float, required=True, help="common trust")
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", type=_float_list, default=[0.5, 0.7, 0.9])
    p.add_argument("--empirical", action="store_true", help="bisect the measured k alongside")
    p.add_argument("--nodes", type=int, default=None)
    _add_seed_pool_flags(p)
    _add_solver_flags(p)

    p = command("cdf", cmd_cdf, "empirical score distribution of non-raters")
    _add_size_flags(p)
    p.add_argument("--t", type=float, default=0.5, help="common trust")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rating", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10)
    _add_solver_flags(p)

    return parser


def _load_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Pre-parse --config and install its values as subparser defaults so
    explicit flags still win. The probe knows only --config, so it demands
    no required flag, and a required flag the file supplies stops being one."""
    probe = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    probe.add_argument("--config", default=None)
    config = probe.parse_known_args(argv[1:])[0].config
    command = argv[0] if argv else None
    sub = parser._subparsers._group_actions[0].choices.get(command)  # noqa: SLF001
    if not config or sub is None:
        return
    actions = {action.dest: action for action in sub._actions}  # noqa: SLF001
    defaults = {}
    for key, raw in _load_config_file(config).items():
        action = actions.get(key)
        if action is None:
            raise ValidationError(f"unknown config key {key!r} for command {command!r}")
        action.required = False
        if isinstance(action, argparse._StoreTrueAction):  # noqa: SLF001
            defaults[key] = raw.lower() in ("1", "true", "yes")
            continue
        try:
            defaults[key] = action.type(raw) if action.type else raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from None
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
