import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trustsat import experiments
from trustsat.cli import main

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def write_path_graph(path):
    # D(2) -> A(1) -> B(0): the worked 3-node example
    path.write_text("nodes,3\n1,0,0.6\n2,1,0.5\n")


def test_generate_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = run_cli("generate", "--nodes", "1000", "--avg-degree", "10",
                 "--trust", "uniform", "--seed", "1", "-o", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nodes,1000"
    n_edges = len(lines) - 1
    assert abs(n_edges - 10000) < 4 * np.sqrt(10000)
    assert "edges=" in capsys.readouterr().out


def test_generate_zero_degree(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli("generate", "--nodes", "50", "--avg-degree", "0", "-o", str(out)) == 0
    assert out.read_text().strip() == "nodes,50"


def test_generate_missing_nodes_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--avg-degree", "10", "-o", str(tmp_path / "g.csv"))
    assert exc.value.code == 2


def test_generate_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("generate", "--nodes", "200", "--avg-degree", "5", "--seed", "9")
    assert run_cli(*args, "-o", str(a)) == 0
    assert run_cli(*args, "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_path_fixture(tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    raters = tmp_path / "raters.csv"
    raters.write_text("0,0.8\n")
    out = tmp_path / "scores.csv"
    rc = run_cli("solve", "--graph", str(gpath), "--raters", str(raters),
                 "--b", "0.3", "-o", str(out))
    assert rc == 0
    text = out.read_text()
    assert "0.48" in text and "0.24" in text
    assert "satisfied_fraction=0.666666666667" in capsys.readouterr().out


def test_solve_repeated_rater_is_validation_error(tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    raters = tmp_path / "raters.csv"
    raters.write_text("0,0.8\n2,0.5\n0,0.1\n")
    rc = run_cli("solve", "--graph", str(gpath), "--raters", str(raters),
                 "--b", "0.3", "-o", str(tmp_path / "s.csv"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 3: duplicate rating for node 0" in err


def test_solve_zero_rater_fraction(tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    rc = run_cli("solve", "--graph", str(gpath), "--rater-fraction", "0", "-o",
                 str(tmp_path / "s.csv"))
    assert rc == 0
    assert "satisfied_fraction=0" in capsys.readouterr().out


def test_solve_alpha_out_of_range(tmp_path):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    rc = run_cli("solve", "--graph", str(gpath), "--rater-fraction", "0.5",
                 "--alpha", "0.4")
    assert rc == 3


@pytest.mark.parametrize("fraction", ["-0.1", "1.5"])
def test_solve_rater_fraction_out_of_range(tmp_path, capsys, fraction):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    rc = run_cli("solve", "--graph", str(gpath), "--rater-fraction", fraction,
                 "-o", str(tmp_path / "s.csv"))
    assert rc == 3
    assert "rater fraction must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_solve_missing_graph_file(tmp_path):
    rc = run_cli("solve", "--graph", str(tmp_path / "nope.csv"), "--rater-fraction", "0.5")
    assert rc == 4


def test_session_command(tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    assert run_cli("generate", "--nodes", "60", "--avg-degree", "6", "--seed", "2",
                   "-o", str(gpath)) == 0
    capsys.readouterr()
    out = tmp_path / "session.csv"
    rc = run_cli("session", "--graph", str(gpath), "--b", "0.2",
                 "--strategy", "marginal", "--seed", "3", "-o", str(out))
    assert rc == 0
    assert "status=published" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[-1] == "# status=published"
    assert any(line.startswith("round,") for line in lines)


@pytest.mark.parametrize("strategy, rc", [("random", 0), ("trust", 0), ("marginal", 3)])
def test_session_assumed_rating_checked_only_for_marginal(tmp_path, capsys, strategy, rc):
    # only the marginal greedy assumes a rating; rating 0 is a valid rating
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    assert run_cli("session", "--graph", str(gpath), "--strategy", strategy, "--rating", "0",
                   "-o", str(tmp_path / "s.csv")) == rc
    out, err = capsys.readouterr()
    assert ("assumed rating must lie in (0, 1], got 0.0" in err) == (rc == 3)
    # no rating of 0 lifts anyone above a threshold: deadlock before round 1
    assert ("status=deadlock raters=0" in out) == (rc == 0)


def test_session_trust_update_runs_once_after_the_session(tmp_path, monkeypatch):
    # perfbench traces the update through the editing module attribute and
    # reads the graph and the session state from its first two arguments
    from trustsat import SessionState, TrustGraph, editing

    calls = []
    real = editing.apply_rater_trust_updates
    monkeypatch.setattr(editing, "apply_rater_trust_updates", lambda *args: calls.append(args) or real(*args))
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    assert run_cli("session", "--graph", str(gpath), "--trust-update", "0.5,16", "-o", str(tmp_path / "s.csv")) == 0
    assert len(calls) == 1
    g, state = calls[0][:2]
    assert isinstance(g, TrustGraph) and isinstance(state, SessionState) and len(state.ratings) >= 1


def test_compare_without_marginal_accepts_rating_zero(tmp_path):
    assert run_cli("compare", "--nodes", "40", "--avg-degree", "4", "--strategies", "random,trust",
                   "--rating", "0", "--num-seeds", "2", "-o", str(tmp_path / "cmp.csv")) == 0


def test_sweep_k_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep-k", "--nodes", "150", "--avg-degree", "8", "--b", "0.2",
                 "--k-grid", "0,0.1,0.3", "--num-seeds", "3", "-o", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "k,mean_unsatisfied,stderr"
    first = data[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert any(line.startswith("# nodes = 150") for line in lines)


@pytest.mark.parametrize(
    "flags",
    [("--seed", "-1"), ("--seeds", "-3"), ("--seeds", "1,-3"), ("--seed", "x")],
    ids=["seed", "seeds", "seeds-mixed", "seed-text"],
)
def test_negative_seed_is_usage_error(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep-k", "--nodes", "50", "--avg-degree", "4", *flags,
                "-o", str(tmp_path / "s.csv"))
    assert exc.value.code == 2


def test_config_negative_seed_is_validation_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = -2\n")
    rc = run_cli("sweep-k", "--nodes", "50", "--avg-degree", "4", "--config", str(cfgfile),
                 "-o", str(tmp_path / "s.csv"))
    assert rc == 3
    assert "config key 'seed'" in capsys.readouterr().err


def test_sweep_k_unconverged_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep-k", "--nodes", "150", "--avg-degree", "8", "--k-grid", "0.1",
                 "--num-seeds", "2", "--max-iters", "1", "-o", str(out))
    assert rc == 4
    assert "stopped after 1 iterations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["session", "compare"])
def test_session_unconverged_is_runtime_error(tmp_path, capsys, command):
    gpath = tmp_path / "g.csv"
    assert run_cli("generate", "--nodes", "100", "--avg-degree", "8", "-o", str(gpath)) == 0
    argv = {"session": ("session", "--graph", str(gpath), "--strategy", "trust"),
            "compare": ("compare", "--nodes", "100", "--avg-degree", "8", "--num-seeds", "1")}[command]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--max-iters", "1", "-o", str(out)) == 4
    assert "stopped after 1 iterations" in capsys.readouterr().err
    assert not out.exists()


def test_session_negative_round_budget_is_validation_error(tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    assert run_cli("session", "--graph", str(gpath), "--max-rounds", "-3") == 3
    assert "max_rounds must be >= 0" in capsys.readouterr().err


def test_marginal_session_over_cap_is_validation_error(tmp_path, capsys, monkeypatch):
    import trustsat.editing

    monkeypatch.setattr(trustsat.editing, "DELTA_FAST_PATH_CAP", 2)
    gpath = tmp_path / "g.csv"
    write_path_graph(gpath)
    assert run_cli("session", "--graph", str(gpath), "--strategy", "marginal") == 3
    assert "limited to 2 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("compare", "--nodes", "30", "--avg-degree", "4", "--num-seeds", "1"),
    ("cdf", "--nodes", "30", "--avg-degree", "4", "--k", "0.2"),
    ("bounds", "--mean-degree", "10", "--t", "0.8", "--empirical", "--nodes", "30"),
], ids=["compare", "cdf", "bounds"])
def test_alpha_is_usage_error_where_fixed(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--alpha", "0.9")
    assert exc.value.code == 2


def test_sweep_p_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli("sweep-p", "--nodes", "120", "--p-grid", "0.01,0.05", "--k", "0.2",
                 "--b", "0.2", "--num-seeds", "2", "-o", str(out))
    assert rc == 0
    data = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert data[0] == "p,mean_unsatisfied,stderr"
    assert len(data) == 3


def test_compare_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_cli("compare", "--nodes", "100", "--avg-degree", "8", "--b", "0.2",
                 "--num-seeds", "2", "-o", str(out))
    assert rc == 0
    printed = capsys.readouterr().out
    assert "marginal" in printed and "median_raters_to_publish" in printed
    data = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert data[0] == "strategy,seed,raters,satisfied,fraction"


def test_bounds_csv_contains_hand_value(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run_cli("bounds", "--mean-degree", "1e9", "--t", "0.5", "--b", "0.3",
                 "--t-grid", "0.5,0.9", "-o", str(out))
    assert rc == 0
    text = out.read_text()
    assert "0.369863" in text


def test_bounds_rejects_rating_below_threshold():
    rc = run_cli("bounds", "--mean-degree", "20", "--t", "0.5", "--b", "0.4",
                 "--rating", "0.3")
    assert rc == 3


def test_bounds_empirical_column(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run_cli("bounds", "--mean-degree", "10", "--t", "0.8", "--b", "0.2",
                 "--t-grid", "0.5", "--empirical", "--nodes", "300",
                 "--num-seeds", "3", "-o", str(out))
    assert rc == 0
    data = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert data[0] == "T,k_min,k_max,k_hat"
    share, k_min, k_max, k_hat = map(float, data[1].split(","))
    assert k_min <= k_hat <= k_max


@pytest.mark.parametrize("grid, rc, draws", [("0.3,0.5,0.7", 0, 4), ("0.3,0.5,1.5", 3, 0)],
                         ids=["valid", "bad-last-share"])
def test_bounds_empirical_draws_each_seed_once(tmp_path, monkeypatch, grid, rc, draws):
    # a bad share fails before any graph is drawn
    calls = []
    real = experiments._draw_graph
    monkeypatch.setattr(experiments, "_draw_graph", lambda *args: calls.append(1) or real(*args))
    assert run_cli("bounds", "--mean-degree", "10", "--t", "0.8", "--t-grid", grid, "--empirical",
                   "--nodes", "100", "--num-seeds", "4", "-o", str(tmp_path / "bounds.csv")) == rc
    assert len(calls) == draws


def test_cdf_csv(tmp_path):
    out = tmp_path / "cdf.csv"
    rc = run_cli("cdf", "--nodes", "300", "--avg-degree", "10", "--t", "0.5",
                 "--k", "0.2", "--trials", "3", "-o", str(out))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "x,F"
    assert len(data) == 1002
    assert data[-1].endswith(",1")


def test_cdf_takes_no_threshold(tmp_path):
    # the pooled scores are never compared with a threshold, so any rating
    # in (0, 1] is valid and --b is an unknown flag
    argv = ("cdf", "--nodes", "50", "--avg-degree", "4", "--k", "0.2", "--trials", "1")
    assert run_cli(*argv, "--rating", "0.15", "-o", str(tmp_path / "cdf.csv")) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--b", "0.3")
    assert exc.value.code == 2


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nodes = 80\navg-degree = 4\nseed = 5\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("generate", "--nodes", "80", "--config", str(cfgfile), "-o", str(out_a)) == 0
    # flag overrides the config's node count
    assert run_cli("generate", "--config", str(cfgfile), "--nodes", "40", "-o", str(out_b)) == 0
    assert out_a.read_text().splitlines()[0] == "nodes,80"
    assert out_b.read_text().splitlines()[0] == "nodes,40"


def test_config_equals_form_reads_the_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("avg_degree = 4\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("generate", "--nodes", "30", "--config", str(cfgfile), "-o", str(out_a)) == 0
    assert run_cli("generate", "--nodes", "30", f"--config={cfgfile}", "-o", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_supplies_required_flags(tmp_path, capsys):
    cfgfile = tmp_path / "n.cfg"
    cfgfile.write_text("nodes = 30\navg_degree = 4\n")
    out_cfg, out_flags, out_abbrev = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli("generate", "--config", str(cfgfile), "-o", str(out_cfg)) == 0
    assert run_cli("generate", "--nodes", "30", "--avg-degree", "4", "-o", str(out_flags)) == 0
    assert run_cli("generate", "--conf", str(cfgfile), "-o", str(out_abbrev)) == 0
    assert out_cfg.read_bytes() == out_flags.read_bytes() == out_abbrev.read_bytes()
    # a required flag the file does not supply is still required
    cfgfile.write_text("avg_degree = 4\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--config", str(cfgfile), "-o", str(out_cfg))
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err
    cfgfile.write_text("nodes = many\navg_degree = 4\n")
    assert run_cli("generate", "--config", str(cfgfile), "-o", str(out_cfg)) == 3
    assert "config key 'nodes'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("generate", "--nodes", "0", "--avg-degree", "4", "-o", "g.csv"),
    ("sweep-k", "--nodes", "0", "--avg-degree", "4"),
    ("cdf", "--nodes", "0", "--avg-degree", "4", "--k", "0.2"),
    ("compare", "--nodes", "0", "--avg-degree", "4", "--num-seeds", "1"),
    ("bounds", "--mean-degree", "10", "--t", "0.8", "--empirical", "--nodes", "0"),
    ("sweep-k", "--nodes", "-5", "--avg-degree", "2"),
    ("sweep-p", "--nodes", "0", "--p-grid", "0.1", "--k", "0.1"),
    ("sweep-p", "--nodes", "-5", "--p-grid", "0.1", "--k", "0.1"),
    ("compare", "--nodes", "-3", "--p", "0.1"),
    ("cdf", "--nodes", "-5", "--p", "0.1", "--k", "0.2"),
], ids=["generate", "sweep-k", "cdf", "compare", "bounds", "sweep-k-negative", "sweep-p", "sweep-p-negative",
        "compare-negative", "cdf-negative"])
def test_zero_nodes_is_validation_error(tmp_path, capsys, monkeypatch, argv):
    # the count is checked before anything is sized by it
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 3
    assert f"--nodes must be >= 1, got {argv[argv.index('--nodes') + 1]}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["solve-graph", "session-graph", "solve-thresholds"])
def test_input_file_node_count_below_one_is_validation_error(tmp_path, capsys, case):
    gpath, bpath = tmp_path / "g.csv", tmp_path / "b.csv"
    if case == "solve-thresholds":
        write_path_graph(gpath)
        bpath.write_text("nodes,-2\n")
        argv = ("solve", "--graph", str(gpath), "--thresholds", str(bpath), "--rater-fraction", "0.5")
    else:
        gpath.write_text("nodes,0\n")
        argv = {"solve-graph": ("solve", "--graph", str(gpath), "--rater-fraction", "0.5"),
                "session-graph": ("session", "--graph", str(gpath), "--strategy", "trust")}[case]
    assert run_cli(*argv) == 3
    assert "node count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["0", "-1"])
def test_truncnorm_nonpositive_variance_is_validation_error(tmp_path, capsys, var):
    out = tmp_path / "s.csv"
    rc = run_cli("sweep-k", "--nodes", "50", "--avg-degree", "4", "--num-seeds", "2",
                 "--b-truncnorm", f"0.25,{var}", "-o", str(out))
    assert rc == 3
    assert "variance must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_truncnorm_unreachable_mean_is_validation_error(tmp_path, capsys):
    # so wide a normal truncates to nearly uniform on [0, 1], whose mean 0.5
    # no location in the bisection's range can pull down to 0.25; the check
    # comes before the rejection sampler, which would keep ~4e-7 of its draws
    out = tmp_path / "s.csv"
    start = time.perf_counter()
    rc = run_cli("sweep-k", "--nodes", "50", "--avg-degree", "4", "--num-seeds", "2",
                 "--b-truncnorm", "0.25,1e12", "-o", str(out))
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    assert "has mean 0.25" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bogus = 1\n")
    rc = run_cli("generate", "--nodes", "10", "--config", str(cfgfile),
                 "-o", str(tmp_path / "g.csv"))
    assert rc == 3


def run_module(*argv, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "trustsat.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))),
    )


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_module("generate", "--nodes", "20", "--avg-degree", "2", "-o", str(out))
    assert proc.returncode == 0
    assert out.exists()


def test_output_to_redirected_stdout(tmp_path):
    # without -o the CSV goes to stdout; with stdout a regular file, the
    # summary lines must follow the CSV rather than overwrite its head
    gpath = tmp_path / "g.csv"
    assert run_cli("generate", "--nodes", "40", "--avg-degree", "4", "-o", str(gpath)) == 0
    cases = {
        "solve": (("solve", "--graph", str(gpath), "--rater-fraction", "0.1", "--b", "0.2"),
                  "# alpha = 0.5", "node,score,satisfied", 40, 1),
        "compare": (("compare", "--nodes", "30", "--avg-degree", "4", "--num-seeds", "1"),
                    "# avg_degree = 4.0", "strategy,seed,raters,satisfied,fraction", None, 3),
    }
    for name, (argv, first, columns, n_rows, n_summary) in cases.items():
        path = tmp_path / f"{name}.txt"
        with open(path, "w", encoding="utf-8") as f:
            proc = run_module(*argv, stdout=f)
        assert proc.returncode == 0, proc.stderr
        lines = path.read_text().splitlines()
        assert lines[0] == first
        head = lines.index(columns)
        assert all(line.startswith("# ") for line in lines[:head])
        rows, summary = lines[head + 1:-n_summary], lines[-n_summary:]
        if n_rows is not None:
            assert [int(r.split(",")[0]) for r in rows] == list(range(n_rows))
        else:
            assert len(rows) > 0 and all(r.count(",") == 4 for r in rows)
        if name == "solve":
            assert summary[0].startswith("satisfied_fraction=")
        else:
            assert [s.split(":")[0] for s in summary] == ["random", "trust", "marginal"]
