#!/usr/bin/env python3
"""Protocol benchmark for trustsat: one workload, timed end to end through
``trustsat.cli.main``, or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-k --seed 1 --seconds 30 --trace 0

One client in one process runs one untimed warm-up command, then one CLI
command at a time (a closed loop) until ``--seconds`` have passed, then
checks the outputs outside the timed part. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
commands and reports the per-layer metrics. The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


def pin_environment() -> dict:
    """numpy kernels and BLAS threads capped at the usable core count; set
    before numpy is imported, and inherited by the set-up probes."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["TRUSTSAT_BACKEND"] = "numpy"
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return {"nproc": nproc, "blas_threads": int(os.environ[BLAS_VARS[0]])}


def environment(pinned: dict, seed: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    from trustsat import _kernels

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else []) if line.startswith("model name")]
    return {
        **pinned,
        "cpu": models[0] if models else platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "backend": getattr(_kernels, "BACKEND", "n/a"),
        "seed": seed,
    }


def setup_seconds(workload: str, seed: int, work: Path, repeats: int) -> list[float]:
    """Import plus input generation, each time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path("src").resolve()), str(HERE)]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["input_s"])
    return times


class Command:
    """One CLI invocation: wall time, exit code, captured stdout, output file."""

    def __init__(self, argv: list[str], out: Path):
        from trustsat import cli

        buf = io.StringIO()
        self.rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                self.rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
        self.wall = time.perf_counter() - start
        self.stdout = buf.getvalue()
        self.output = out.read_text(encoding="utf-8") if self.rc == 0 and out.exists() else None


def warm_up(w, seed, argv, out: Path, work: Path):
    """The untimed first command; every timed command must repeat its output.
    A sweep's warm-up runs while its solves are observed, for the check of
    one (graph seed, k) point chosen by the seed. Returns (Command, capture
    or None)."""
    import spans as tr
    import workloads as wl

    capture = None
    if w.is_session:
        cmd = Command(argv, out)
    else:
        capture = wl.SweepCapture(keep_index=seed % w.solves, keep_file=work / "kept.npz")
        with tr.patched({("trustsat.experiments", "solve_iterative"): capture.wrap}):
            cmd = Command(argv, out)
    if out.exists():
        out.unlink()
    return cmd, capture


def run_loop(argv, out: Path, seconds: float, trace: bool):
    """Closed loop until ``seconds`` pass. Traced runs alternate untraced and
    traced commands (at least one of each); returns (untraced, traced) with
    traced as (Command, Recorder) pairs."""
    import spans as tr

    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or (trace and not traced) or time.perf_counter() - start < seconds:
        if trace and len(traced) < len(untraced):
            rec = tr.Recorder()
            with tr.tracing(rec):
                cmd = Command(argv, out)
            traced.append((cmd, rec))
        else:
            untraced.append(Command(argv, out))
        if out.exists():
            out.unlink()
    return untraced, traced


def check_outputs(w, seed, reference, capture) -> list[str]:
    """Correctness of the reference output (the warm-up command's)."""
    import workloads as wl

    if reference.output is None:
        return [f"warm-up command failed with exit code {reference.rc}"]
    if w.is_session:
        return wl.check_session(w, seed, reference.output, reference.stdout)
    return wl.check_sweep(reference.output, capture)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "trustsat" / "__init__.py").is_file():
        print("error: run from the root of a trustsat checkout (no src/trustsat here)", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path.insert(0, str(src))
    import trustsat  # after the pinning, so numpy sees the thread caps

    if Path(trustsat.__file__).resolve().parent != src / "trustsat":
        print(f"error: imported trustsat from {trustsat.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    declared = json.loads(Path("BENCHMARK.json").read_text())["end_to_end" if not args.trace else "per_layer"]

    work = Path(".perfbench_work") / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = setup_seconds(w.name, args.seed, work, SETUP_REPEATS if not args.trace else 1)
        out = work / "out.csv"
        argv = w.argv(args.seed, work)
        reference, capture = warm_up(w, args.seed, argv, out, work)
        untraced, traced = run_loop(argv, out, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        commands = [reference] + untraced + [cmd for cmd, _ in traced]
        problems = check_outputs(w, args.seed, reference, capture)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # when the reference output is wrong, so is every command that repeated it
    failed = len(commands) if problems else sum(c.output != reference.output for c in commands)
    ops = wl.op_count(w, reference.output) if reference.output else 0
    wall_s = statistics.median([c.wall for c in untraced])

    print(f"# workload {w.name}: trustsat {' '.join(argv)}")
    print(f"# env {json.dumps(environment(pinned, args.seed))}")
    print(f"# set-up times (s): {[round(t, 4) for t in setup]}")
    print(f"# warm-up command wall time (s): {reference.wall:.4f}, untimed")
    print(f"# untraced command wall times (s): {[round(c.wall, 4) for c in untraced]}")
    print(f"# operations per command: {ops} ({'rounds' if w.is_session else 'solves'})")
    if w.is_session and reference.output:
        status, rounds = wl.session_summary(reference.output)
        print(f"# session status={status} raters_to_publish={rounds if status == 'published' else 'n/a'}"
              f" raters_used={rounds}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(f"# checks: {'passed' if not problems else 'FAILED'}; "
          f"error_rate = {failed}/{len(commands)} = {failed / len(commands):.4g}")

    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            # closed-loop throughput, the median over the timed commands
            "ops_per_s": (statistics.median([ops / c.wall for c in untraced]), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_command = [tr.layer_metrics(rec, cmd.wall) for cmd, rec in traced]
        metrics = {
            name: (statistics.median([m[name][0] for m in per_command]), unit)
            for name, (_v, unit) in per_command[0].items()
        }
        traced_wall = statistics.median([cmd.wall for cmd, _ in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        metrics["trace.overhead_ratio"] = ((traced_wall - wall_s) / wall_s, "ratio")
        print(f"# traced command wall times (s): {[round(c.wall, 4) for c, _ in traced]}")
        if tr.absent_targets():
            print(f"# not traced (absent from this version): {tr.absent_targets()}")

    for name, (value, unit) in metrics.items():
        print(f"#   {name:44s} {value:14.6g} {unit}{'  (computed)' if name in tr.COMPUTED else ''}")
    names = {m["name"]: m["unit"] for m in declared}
    if names != {name: unit for name, (_v, unit) in metrics.items()}:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
