import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import endorse_dyn
from endorse_dyn import __version__, cli, inference
from endorse_dyn.core import ModelParams, uniform_initial
from endorse_dyn.data import (
    InteractionSequence,
    load_edge_list,
    save_edge_list,
    simulate_sequence,
)
from endorse_dyn.errors import NumericError
from endorse_dyn.sim import _cell_seed, mean_gamma, run


@pytest.fixture
def runner():
    return CliRunner()


def make_data_csv(tmp_path, seed=2, periods=40, name="obs.csv"):
    truth = ModelParams(lam=0.85, beta=(1.2, -0.4), m=6, score_kind="rootdegree", seed=seed)
    seq = simulate_sequence(truth, uniform_initial(4, 6), periods=periods)
    path = tmp_path / name
    save_edge_list(seq, path)
    return path


class TestSimulate:
    def test_writes_outputs(self, runner, tmp_path):
        out = tmp_path / "sim"
        res = runner.invoke(cli.main, [
            "simulate", "--score", "springrank", "--n", "4", "--lambda", "0.95",
            "--steps", "50", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,node,gamma"
        assert len(lines) == 1 + 50 * 4
        adj = (out / "final_adjacency.csv").read_text().splitlines()
        assert len(adj) == 4 and len(adj[0].split(",")) == 4
        run_meta = json.loads((out / "run.json").read_text())
        assert run_meta["command"] == "simulate"
        assert run_meta["version"] == __version__
        assert run_meta["config"]["n"] == 4
        assert run_meta["config"]["steps"] == 50

    @pytest.mark.parametrize("command", ["simulate", "sweep", "bifurcate", "fit", "compare",
                                         "convert"])
    def test_rerun_is_byte_identical(self, runner, tmp_path, command):
        """Every command writes the same bytes, and prints the same lines,
        when rerun with the same settings into another --out."""
        data = str(make_data_csv(tmp_path, periods=8))
        args, outputs = {
            "simulate": (["--score", "rootdegree", "--n", "3", "--lambda", "0.9",
                          "--steps", "30", "--seed", "7"],
                         ["trajectory.csv", "final_adjacency.csv"]),
            "sweep": (["--score", "springrank", "--n", "3", "--lambda", "0.9",
                       "--grid-beta1", "0:3:2", "--grid-beta2", "-1:0:2", "--steps", "30",
                       "--window", "10", "--seed", "7"], ["variance.csv"]),
            "bifurcate": (["--score", "pagerank", "--n", "4", "--grid-beta1", "2:6:2",
                           "--overlay", "--lambda", "0.95", "--steps", "30", "--window", "10",
                           "--seed", "7"], ["branches.csv", "overlay.csv"]),
            "fit": (["--data", data, "--score", "rootdegree", "--restarts", "1"],
                    ["fit.json", "table1.csv", "criticality.csv"]),
            "compare": (["--data", data, "--restarts", "1"],
                        ["compare.json", "table1.csv", "criticality.csv"]),
            "convert": (["--data", data, "--top-count", "3", "--window", "2:6"],
                        ["edges.csv"]),
        }[command]
        written = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(cli.main, [command, *args, "--out", str(out)])
            assert res.exit_code == 0, res.output + res.stderr
            assert sorted(f.name for f in out.iterdir()) == sorted([*outputs, "run.json"])
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            files["run.json"] = files["run.json"].replace(str(out).encode(), b"")
            written.append((files, res.output.replace(str(out), ""), res.stderr))
        assert written[0] == written[1]

    def test_missing_required_key(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "simulate", "--score", "springrank", "--lambda", "0.9",
            "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "missing required key: n" in res.stderr

    def test_m_too_large_for_a_float_is_a_domain_error(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "simulate", "--score", "rootdegree", "--n", "4", "--lambda", "0.9",
            "--steps", "3", "--m", "1" + "0" * 400, "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr.startswith("error: m must be a positive integer of at most 2**53")

    def test_bad_score_kind(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "simulate", "--score", "eigenvector", "--n", "4", "--lambda", "0.9",
            "--steps", "5", "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")


@pytest.mark.parametrize("command", [
    ["simulate", "--lambda", "0.9"],
    ["sweep", "--lambda", "0.9", "--grid-beta1", "0:1:2", "--window", "2"],
    ["bifurcate", "--grid-beta1", "0:1:2"],
    ["bifurcate", "--grid-beta1", "0:1:2", "--overlay", "--window", "2"],
])
def test_n_too_large_for_a_state_is_a_domain_error(runner, tmp_path, command):
    # 99999999999^2 cells are more than 2**53: refused before any allocation
    out = tmp_path / "out"
    res = runner.invoke(cli.main, [*command, "--score", "rootdegree", "--n", "99999999999",
                                   "--steps", "5", "--out", str(out)])
    assert res.exit_code == 2, res.output + res.stderr
    assert res.stderr.startswith("error: n must be an integer with n >= 2")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.output
    assert not out.exists()


class TestConfigFile:
    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\nscore = rootdegree\nn = 4\nlambda = 0.9\nsteps = 20\n"
        )
        out = tmp_path / "o"
        res = runner.invoke(cli.main, [
            "simulate", "--config", str(cfg), "--n", "5", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["n"] == 5  # flag wins
        assert meta["config"]["score"] == "rootdegree"

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score = rootdegree\nn = 4\nlambda = 0.9\nbogus = 1\n")
        res = runner.invoke(cli.main, [
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "unknown config keys: bogus" in res.stderr

    def test_malformed_config_line(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score rootdegree\n")
        res = runner.invoke(cli.main, [
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "config line 1" in res.stderr


    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("simulate", "n", "abc"),
            ("simulate", "lambda", "high"),
            ("bifurcate", "overlay", "maybe"),
            ("bifurcate", "grid_beta1", "1:2"),
        ],
    )
    def test_bad_config_value_names_key_and_value(self, runner, tmp_path, command, key, value):
        keys = {"score": "rootdegree", "n": "4", "lambda": "0.9", "grid_beta1": "1:2:2"}
        keys = {k: v for k, v in keys.items() if k in SPECS[command]}
        keys[key] = value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        res = runner.invoke(cli.main, [
            command, "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr.startswith(f"error: bad value for {key}: {value!r}")

    def test_overlay_no_reads_as_false(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score = rootdegree\nn = 3\ngrid_beta1 = 1:1:1\noverlay = no\n")
        out = tmp_path / "o"
        res = runner.invoke(cli.main, ["bifurcate", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output + res.stderr
        assert json.loads((out / "run.json").read_text())["config"]["overlay"] is False
        assert not (out / "overlay.csv").exists()

    def test_unreadable_config_file(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["simulate", "--config", str(tmp_path / "absent.cfg"),
                                       "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr.startswith("error: cannot read config file: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags,expected", [([], True), (["--no-overlay"], False),
                                                (["--overlay"], True)])
    def test_flags_override_config_for_bool_keys(self, runner, tmp_path, flags, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score = rootdegree\nn = 3\ngrid_beta1 = 1:1:1\noverlay = true\n"
                       "lambda = 0.9\nsteps = 20\nwindow = 5\n")
        out = tmp_path / "o"
        res = runner.invoke(cli.main, ["bifurcate", "--config", str(cfg), *flags,
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output + res.stderr
        assert json.loads((out / "run.json").read_text())["config"]["overlay"] is expected
        assert (out / "overlay.csv").exists() is expected


class TestSweep:
    def test_variance_grid(self, runner, tmp_path):
        out = tmp_path / "sweep"
        res = runner.invoke(cli.main, [
            "sweep", "--score", "rootdegree", "--n", "4", "--lambda", "0.95",
            "--grid-beta1", "0:4:3", "--steps", "60", "--window", "20",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        lines = (out / "variance.csv").read_text().splitlines()
        assert lines[0] == "beta1,beta2,variance"
        assert len(lines) == 4  # 3 beta1 values x default single beta2
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 2.0, 4.0]

    def test_grid_parse_error(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "sweep", "--score", "rootdegree", "--n", "4", "--lambda", "0.95",
            "--grid-beta1", "0:4", "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "START:STOP:NUM" in res.stderr

    @pytest.mark.parametrize("grid,reason", [
        ("a:b:3", "grid must be START:STOP:NUM with numeric fields"),
        ("0:1:0", "grid NUM must be >= 1"),
    ])
    def test_grid_with_bad_fields_is_refused(self, runner, tmp_path, grid, reason):
        res = runner.invoke(cli.main, [
            "sweep", "--score", "rootdegree", "--n", "4", "--lambda", "0.95",
            "--grid-beta1", grid, "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr == f"error: bad value for grid_beta1: {grid!r} ({reason})\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [
        ["sweep", "--lambda", "0.95", "--grid-beta1", "0:4:3"],
        ["bifurcate", "--grid-beta1", "2.0:6.0:2", "--overlay"],
    ])
    def test_window_checked_before_simulating(self, runner, tmp_path, monkeypatch, command):
        calls = []
        monkeypatch.setattr(endorse_dyn.sim, "run", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        res = runner.invoke(cli.main, [
            *command, "--score", "rootdegree", "--n", "4", "--steps", "20",
            "--window", "30", "--out", str(out),
        ])
        assert res.exit_code == 2
        assert "window must lie in [1, 20]" in res.stderr
        assert calls == []
        assert not out.exists()


class TestBifurcate:
    def test_single_point_grid(self, runner, tmp_path):
        out = tmp_path / "bif"
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "4", "--m", "1",
            "--grid-beta1", "5.0:5.0:1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        lines = (out / "branches.csv").read_text().splitlines()
        assert lines[0] == "beta1,k_elite,a,b,stable,max_eig_real"
        rows = [l.split(",") for l in lines[1:]]
        assert rows, "expected at least the egalitarian root"
        assert all(float(r[0]) == 5.0 for r in rows)
        ks = {int(r[1]) for r in rows}
        assert 0 in ks  # egalitarian present
        assert ks - {0}, "expected a hierarchical root above threshold"
        assert all(r[4] in ("true", "false") for r in rows)
        # canonical ordering a >= b on every row
        assert all(float(r[2]) >= float(r[3]) - 1e-9 for r in rows)

    def test_overlay_points(self, runner, tmp_path):
        out = tmp_path / "bif"
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "4", "--m", "1",
            "--grid-beta1", "2.0:6.0:2", "--overlay", "--lambda", "0.99",
            "--steps", "300", "--window", "100", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        lines = (out / "overlay.csv").read_text().splitlines()
        assert lines[0] == "beta1,node,gamma"
        assert len(lines) == 1 + 2 * 4  # 2 grid points x 4 nodes
        gam = np.array([float(l.split(",")[2]) for l in lines[1:5]])
        assert gam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_overlay_point_uses_the_sweep_cell_seed(self, runner, tmp_path):
        out = tmp_path / "bif"
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "4", "--m", "2",
            "--grid-beta1", "2.0:6.0:2", "--beta2", "-0.5", "--overlay",
            "--lambda", "0.9", "--steps", "40", "--window", "10", "--seed", "11",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        rows = [l.split(",") for l in (out / "overlay.csv").read_text().splitlines()[1:]]
        params = ModelParams(lam=0.9, beta=(6.0, -0.5), m=2, score_kind="rootdegree",
                             seed=_cell_seed(11, 1))
        expected = mean_gamma(run(params, a0=uniform_initial(4, 2), steps=40), window=10)
        assert [float(r[2]) for r in rows if float(r[0]) == 6.0] == expected.tolist()


    def test_beta1_column_is_the_grid(self, runner, tmp_path):
        # linspace points need more than 12 decimals: 1.1666666666666667, ...
        out = tmp_path / "bif"
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "4", "--m", "1",
            "--grid-beta1", "1:2:7", "--overlay", "--lambda", "0.9",
            "--steps", "20", "--window", "5", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        grid = cli._parse_grid("1:2:7")
        branch_b1 = [float(l.split(",")[0])
                     for l in (out / "branches.csv").read_text().splitlines()[1:]]
        overlay_b1 = [float(l.split(",")[0])
                      for l in (out / "overlay.csv").read_text().splitlines()[1:]]
        assert sorted(set(branch_b1)) == grid
        assert sorted(set(overlay_b1)) == grid

    def test_every_elite_size_at_n256(self, runner, tmp_path):
        # beta1_c = 2 sqrt(n / m) = 32 for rootdegree
        out = tmp_path / "bif"
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "256", "--m", "1",
            "--grid-beta1", "28:36:2", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        rows = [l.split(",") for l in (out / "branches.csv").read_text().splitlines()[1:]]
        rows = [(float(b1), int(k), float(a), float(b)) for b1, k, a, b, _, _ in rows]
        for b1 in (28.0, 36.0):
            assert sum(1 for r in rows if r[0] == b1 and r[1] == 0) == 1
        assert {r[1] for r in rows} - {0}, "expected hierarchical roots"
        for i, (b1, k, a, b) in enumerate(rows):
            assert a >= b
            tol = 1e-6 * (1.0 + abs(a) + abs(b))
            assert not any(r[0] == b1 and r[1] == k and abs(r[2] - a) + abs(r[3] - b) < tol
                           for r in rows[i + 1:])

    def test_one_node_is_a_domain_error(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "bifurcate", "--score", "rootdegree", "--n", "1",
            "--grid-beta1", "1:2:2", "--out", str(tmp_path / "bif"),
        ])
        assert res.exit_code == 2
        assert "n >= 2" in res.stderr


class TestFitAndCompare:
    def test_fit_outputs(self, runner, tmp_path):
        data = make_data_csv(tmp_path)
        out = tmp_path / "fit"
        res = runner.invoke(cli.main, [
            "fit", "--data", str(data), "--score", "rootdegree",
            "--restarts", "2", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        fit_meta = json.loads((out / "fit.json").read_text())
        assert fit_meta["score_kind"] == "rootdegree"
        assert 0 < fit_meta["lambda_hat"] < 1
        assert len(fit_meta["beta_hat"]) == 2
        t1 = (out / "table1.csv").read_text().splitlines()
        assert t1[0] == cli.TABLE1_HEADER
        assert len(t1) == 2 and t1[1].startswith("obs,rootdegree,")
        t2 = (out / "criticality.csv").read_text().splitlines()
        assert t2[0] == cli.TABLE2_HEADER
        if fit_meta["se"] is not None:
            assert len(t2) == 2
            assert t2[1].split(",")[5] in ("above", "below", "indistinguishable")
        assert json.loads((out / "run.json").read_text())["command"] == "fit"

    def test_fit_warm_start_drops_unknown_labels(self, runner, tmp_path):
        data = make_data_csv(tmp_path)
        warm = tmp_path / "warm.csv"
        warm.write_text(
            "period,source,target,count\n0,v0,v1,3\n0,zz,v2,2\n", encoding="utf-8"
        )
        out = tmp_path / "fitw"
        res = runner.invoke(cli.main, [
            "fit", "--data", str(data), "--score", "rootdegree",
            "--warm-start", str(warm), "--restarts", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        assert "dropped 1 labels" in res.stderr
        # both endpoints unknown: each absent label counts
        warm.write_text(
            "period,source,target,count\n0,v0,v1,3\n0,zz,v2,2\n0,zz,yy,1\n",
            encoding="utf-8",
        )
        res = runner.invoke(cli.main, [
            "fit", "--data", str(data), "--score", "rootdegree",
            "--warm-start", str(warm), "--restarts", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        assert "dropped 2 labels" in res.stderr

    def test_fit_missing_data_file(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "fit", "--data", str(tmp_path / "absent.csv"), "--score", "rootdegree",
            "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert res.stderr.startswith("io error:")

    @pytest.mark.parametrize("count", ["zero", "9" * 310], ids=["word", "310-nines"])
    def test_fit_malformed_data_reports_line(self, runner, tmp_path, count):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"period,source,target,count\n1,a,b,2\n1,a,b,{count}\n")
        res = runner.invoke(cli.main, [
            "fit", "--data", str(bad), "--score", "rootdegree",
            "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "line 3" in res.stderr

    def test_compare_records_one_kinds_failure(self, runner, tmp_path, monkeypatch):
        fit_one = inference._fit

        def failing_pagerank(counts, params, restarts):
            if params.score_kind == "pagerank":
                raise NumericError("no restart converged", {"lambda=0.5": "grad_norm=1"})
            return fit_one(counts, params, restarts)

        monkeypatch.setattr(inference, "_fit", failing_pagerank)
        data = make_data_csv(tmp_path, periods=8)
        out = tmp_path / "cmp"
        res = runner.invoke(cli.main, ["compare", "--data", str(data), "--restarts", "1",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output + res.stderr
        assert "warning: pagerank failed: no restart converged\n" in res.stderr
        meta = json.loads((out / "compare.json").read_text())
        assert meta["errors"] == {"pagerank": "no restart converged"}
        assert sorted(r["score_kind"] for r in meta["results"]) == ["rootdegree", "springrank"]
        t1 = (out / "table1.csv").read_text().splitlines()
        assert len(t1) == 3 and not any(",pagerank," in row for row in t1)

    @pytest.mark.parametrize("command,message", [
        (["fit", "--score", "springrank"], "no restart converged"),
        (["compare"], "every score kind failed to fit"),
    ])
    def test_no_converged_fit_exits_1_with_json_diagnostics(self, runner, tmp_path,
                                                            monkeypatch, command, message):
        solve = inference._maximize_beta
        monkeypatch.setattr(inference, "_maximize_beta",
                            lambda terms, beta0: solve(terms, beta0)._replace(ok=False))
        data = make_data_csv(tmp_path, periods=8)
        out = tmp_path / "o"
        res = runner.invoke(cli.main, [*command, "--data", str(data), "--restarts", "1",
                                       "--out", str(out)])
        assert res.exit_code == 1, res.output + res.stderr
        first, rest = res.stderr.split("\n", 1)
        assert first == f"numeric failure: {message}"
        diagnostics = json.loads(rest)
        if command[0] == "fit":
            assert list(diagnostics) == ["lambda=0.5"]
            assert diagnostics["lambda=0.5"].startswith("grad_norm=")
        else:
            assert diagnostics == {kind: "no restart converged"
                                   for kind in ("pagerank", "rootdegree", "springrank")}
        assert not out.exists()

    def test_compare_outputs(self, runner, tmp_path):
        data = make_data_csv(tmp_path, seed=4)
        out = tmp_path / "cmp"
        res = runner.invoke(cli.main, [
            "compare", "--data", str(data), "--restarts", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        meta = json.loads((out / "compare.json").read_text())
        assert meta["best"] in ("rootdegree", "pagerank", "springrank")
        assert len(meta["results"]) == 3
        lls = [r["loglik"] for r in meta["results"]]
        assert lls == sorted(lls, reverse=True)
        t1 = (out / "table1.csv").read_text().splitlines()
        assert len(t1) == 4

    @pytest.mark.parametrize("case", ["zero-restarts", "one-period", "two-periods"])
    def test_compare_argument_and_data_errors_exit_2(self, runner, tmp_path, case):
        # the error every kind shares is a usage error, not a fit failure
        if case == "one-period":
            data, restarts = tmp_path / "one.csv", "1"
            data.write_text("period,source,target,count\n1,a,b,2\n1,b,a,1\n")
        elif case == "two-periods":
            # period 1 becomes A(0), so lambda cannot enter the likelihood
            data, restarts = tmp_path / "two.csv", "1"
            data.write_text("period,source,target,count\n1,a,b,2\n1,b,c,1\n1,c,a,1\n"
                            "2,a,c,1\n2,b,a,2\n2,c,b,1\n")
        else:
            data, restarts = make_data_csv(tmp_path), "0"
        out = tmp_path / "cmp"
        res = runner.invoke(cli.main, [
            "compare", "--data", str(data), "--restarts", restarts, "--out", str(out),
        ])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr.startswith("error:")
        assert not out.exists()

    def test_lambda_on_a_bound_is_printed(self, runner, tmp_path):
        # A(0) ranks node a on top and every period follows it, plus two
        # endorsements of a node that changes each period: the rootdegree
        # likelihood rises with memory all the way to LAM_HI
        labels = ("a", "b", "c", "d")
        deltas = []
        for t in range(12):
            d = np.zeros((4, 4))
            d[1:, 0] = 1
            d[0, 1] = 1
            d[(t + 1) % 4, (t + 2) % 4] += 2
            deltas.append(d)
        a0 = np.zeros((4, 4))
        a0[1:, 0] = 10
        a0[0, 1] = 10
        data, warm = tmp_path / "long.csv", tmp_path / "long-a0.csv"
        save_edge_list(InteractionSequence(tuple(deltas), labels,
                                           tuple(map(str, range(12)))), data)
        save_edge_list(InteractionSequence((a0,), labels, ("a0",)), warm)
        common = ["--data", str(data), "--warm-start", str(warm), "--restarts", "3"]
        res = runner.invoke(cli.main, ["fit", *common, "--score", "rootdegree",
                                       "--out", str(tmp_path / "fit")])
        assert res.exit_code == 0, res.output + res.stderr
        assert "warning: lambda_hat" in res.stderr and "bound LAM_HI" in res.stderr
        fit_json = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert any("LAM_HI" in w for w in fit_json["warnings"])
        res = runner.invoke(cli.main, ["compare", *common, "--out", str(tmp_path / "cmp")])
        assert res.exit_code == 0, res.output + res.stderr
        assert "warning: rootdegree: lambda_hat" in res.stderr


class TestConvert:
    def test_data_top_count_window(self, runner, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text(
            "period,source,target,count\n"
            "1,a,b,5\n1,b,a,1\n1,c,b,2\n"
            "2,a,c,1\n2,b,c,3\n2,c,a,1\n"
            "3,c,a,4\n3,a,b,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "conv"
        res = runner.invoke(cli.main, [
            "convert", "--data", str(src), "--top-count", "2",
            "--window", "1:2", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        seq = load_edge_list(out / "edges.csv")
        assert seq.period_labels == ("1", "2")  # restricted to the window
        assert seq.n == 2

    def test_window_without_top_count_keeps_every_node(self, runner, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text(
            "period,source,target,count\n"
            "1,a,b,5\n2,b,c,3\n3,c,a,4\n",
            encoding="utf-8",
        )
        out = tmp_path / "conv"
        res = runner.invoke(cli.main, [
            "convert", "--data", str(src), "--window", "2:3", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        seq = load_edge_list(out / "edges.csv")
        assert seq.period_labels == ("2", "3")
        assert seq.node_labels == ("a", "b", "c")

    def test_refused_write_leaves_no_out_directory(self, runner, tmp_path):
        # the top 2 receivers, a and b, are endorsed only by the dropped c and
        # d, so the kept sequence has no edge and save_edge_list refuses it
        src = tmp_path / "src.csv"
        src.write_text("period,source,target,count\n1,c,a,3\n1,d,b,3\n1,c,d,1\n",
                       encoding="utf-8")
        out = tmp_path / "conv"
        res = runner.invoke(cli.main, [
            "convert", "--data", str(src), "--top-count", "2", "--out", str(out),
        ])
        assert res.exit_code == 2, res.output + res.stderr
        assert "fewer than 2 nodes" in res.stderr
        assert not out.exists()

    def test_rankings_topk(self, runner, tmp_path):
        src = tmp_path / "ranks.csv"
        src.write_text(
            "period,source,target,rank\n"
            "1,a,b,1\n1,a,c,2\n1,b,a,1\n1,b,c,2\n1,c,a,2\n1,c,b,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "conv"
        res = runner.invoke(cli.main, [
            "convert", "--rankings", str(src), "--k", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output + res.stderr
        seq = load_edge_list(out / "edges.csv")
        d = seq.deltas[0]
        # each ranker endorses exactly its top choice
        assert d.sum() == 3
        idx = {lab: i for i, lab in enumerate(seq.node_labels)}
        assert d[idx["a"], idx["b"]] == 1
        assert d[idx["b"], idx["a"]] == 1
        assert d[idx["c"], idx["b"]] == 1

    def test_duplicate_ranking_rejected(self, runner, tmp_path):
        src = tmp_path / "ranks.csv"
        src.write_text(
            "period,source,target,rank\n"
            "1,a,b,1\n1,a,c,2\n1,b,a,1\n1,b,c,2\n1,c,a,2\n1,c,b,1\n1,a,b,2\n",
            encoding="utf-8",
        )
        res = runner.invoke(cli.main, [
            "convert", "--rankings", str(src), "--k", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "duplicate ranking" in res.stderr

    def test_empty_ranking_period_rejected(self, runner, tmp_path):
        src = tmp_path / "ranks.csv"
        src.write_text(
            "period,source,target,rank\n"
            "1,a,b,1\n,a,c,2\n1,b,a,1\n1,b,c,2\n1,c,a,2\n1,c,b,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "x"
        res = runner.invoke(cli.main, [
            "convert", "--rankings", str(src), "--k", "1", "--out", str(out),
        ])
        assert res.exit_code == 2
        assert "line 3: empty period label" in res.stderr
        assert not (out / "edges.csv").exists()

    def test_ranking_error_names_period_and_ranker_labels(self, runner, tmp_path):
        src = tmp_path / "ranks.csv"
        src.write_text(
            "period,source,target,rank\n"
            "1998,a,b,1\n1998,a,c,2\n1998,b,a,1\n1998,b,c,2\n1998,c,a,2\n1998,c,b,1\n"
            "1999,a,b,1\n1999,a,c,2\n",
            encoding="utf-8",
        )
        res = runner.invoke(cli.main, [
            "convert", "--rankings", str(src), "--k", "1", "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "period '1999', ranker 'b': row is not a permutation of 1..2" in res.stderr

    def test_window_must_be_lo_hi(self, runner, tmp_path):
        data = make_data_csv(tmp_path)
        res = runner.invoke(cli.main, ["convert", "--data", str(data), "--window", "3",
                                       "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr == "error: window must be LO:HI, got '3'\n"
        assert not (tmp_path / "x").exists()

    def test_exactly_one_source_required(self, runner, tmp_path):
        data = make_data_csv(tmp_path)
        res = runner.invoke(cli.main, [
            "convert", "--data", str(data), "--rankings", str(data),
            "--out", str(tmp_path / "x"),
        ])
        assert res.exit_code == 2
        assert "exactly one" in res.stderr
        res = runner.invoke(cli.main, ["convert", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


class TestThreadCount:
    """ENDORSE_DYN_THREADS sizes the pools of sweep, the overlay and compare."""

    @staticmethod
    def _command(tmp_path, name):
        if name == "compare":
            data = make_data_csv(tmp_path, seed=4, periods=20)
            return ["compare", "--data", str(data), "--restarts", "2"], "compare.json"
        if name == "sweep":
            return ["sweep", "--score", "rootdegree", "--n", "4", "--lambda", "0.95",
                    "--grid-beta1", "0:4:3", "--grid-beta2", "-1:0:2", "--steps", "60",
                    "--window", "20"], "variance.csv"
        return ["bifurcate", "--score", "pagerank", "--n", "4", "--grid-beta1", "2:6:3",
                "--overlay", "--lambda", "0.95", "--steps", "60", "--window", "20"], \
            "overlay.csv"

    @pytest.mark.parametrize("name", ["sweep", "bifurcate", "compare"])
    def test_outputs_do_not_depend_on_thread_count(self, runner, tmp_path, name):
        args, output = self._command(tmp_path, name)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            res = runner.invoke(cli.main, [*args, "--out", str(out)],
                                env={"ENDORSE_DYN_THREADS": threads})
            assert res.exit_code == 0, res.output + res.stderr
            outputs.append((out / output).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["0", "x"])
    @pytest.mark.parametrize("name", ["sweep", "compare"])
    def test_bad_value_is_a_usage_error(self, runner, tmp_path, name, value):
        args, _ = self._command(tmp_path, name)
        res = runner.invoke(cli.main, [*args, "--out", str(tmp_path / "out")],
                            env={"ENDORSE_DYN_THREADS": value})
        assert res.exit_code == 2
        assert "ENDORSE_DYN_THREADS" in res.stderr


class TestErrorMapping:
    def test_numeric_failure_exits_one_with_diagnostics(self, runner):
        @click.command()
        @cli._guarded
        def boom():
            raise NumericError("solver fell over", diagnostics={"iterations": 3})

        res = runner.invoke(boom, [])
        assert res.exit_code == 1
        assert "numeric failure: solver fell over" in res.stderr
        assert '"iterations": 3' in res.stderr

    @pytest.mark.parametrize("grid", ["1e308:-1e308:3", "inf:1:3", "nan:1:3"])
    @pytest.mark.parametrize("command,key", [
        ("sweep", "grid_beta1"), ("sweep", "grid_beta2"), ("bifurcate", "grid_beta1"),
    ])
    def test_grid_bounds_that_are_not_finite_are_refused(self, runner, tmp_path,
                                                         command, key, grid):
        grids = {"grid_beta1": "0:1:2", key: grid}
        flags = [x for k, v in grids.items() for x in (f"--{k.replace('_', '-')}", v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning from numpy fails the test
            res = runner.invoke(cli.main, [command, "--score", "rootdegree", "--n", "4",
                                           "--lambda", "0.9", *flags,
                                           "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr == (f"error: bad value for {key}: {grid!r} "
                              "(grid START, STOP and STOP - START must be finite)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,args", [
        ("simulate", ["--n", "4", "--lambda", "0.9", "--steps", "5"]),
        ("sweep", ["--n", "4", "--lambda", "0.9", "--grid-beta1", "0:1:2",
                   "--steps", "5", "--window", "2"]),
        ("bifurcate", ["--n", "4", "--grid-beta1", "1:2:2"]),
    ])
    def test_negative_seed_is_a_usage_error(self, runner, tmp_path, command, args):
        res = runner.invoke(cli.main, [command, "--score", "rootdegree", *args,
                                       "--seed", "-1", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output + res.stderr
        assert "seed must be a non-negative integer" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_version_flag(self, runner):
        res = runner.invoke(cli.main, ["--version"])
        assert res.exit_code == 0
        assert __version__ in res.output


SUBCOMMANDS = ("simulate", "sweep", "bifurcate", "fit", "compare", "convert")

SPECS = {
    "simulate": cli._SIM_SPEC,
    "sweep": cli._SWEEP_SPEC,
    "bifurcate": cli._BIF_SPEC,
    "fit": cli._FIT_SPEC,
    "compare": cli._COMPARE_SPEC,
    "convert": cli._CONVERT_SPEC,
}


class TestCommandTable:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_config_then_spec_keys(self, runner, command):
        res = runner.invoke(cli.main, [command, "--help"])
        assert res.exit_code == 0
        # a bool key is listed as its on/off pair, "--key / --no-key"
        options = [line.split()[0] if line.split()[1] != "/" else " ".join(line.split()[:3])
                   for line in res.output.splitlines() if line.startswith("  --")]
        flags = []
        for key, (cast, _, _) in SPECS[command].items():
            flag = "--" + key.replace("_", "-")
            flags.append(f"{flag} / --no-{flag[2:]}" if cast is bool else flag)
        assert options == ["--config", *flags, "--help"]

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_run_json_config_keys_are_spec_keys(self, runner, tmp_path, command):
        data = make_data_csv(tmp_path, periods=8)
        args = {
            "simulate": ["--score", "rootdegree", "--n", "3", "--lambda", "0.9",
                         "--steps", "5"],
            "sweep": ["--score", "rootdegree", "--n", "3", "--lambda", "0.9",
                      "--grid-beta1", "0:1:2", "--steps", "5", "--window", "2"],
            "bifurcate": ["--score", "rootdegree", "--n", "3", "--grid-beta1", "1:1:1"],
            "fit": ["--data", str(data), "--score", "rootdegree", "--restarts", "1"],
            "compare": ["--data", str(data), "--restarts", "1"],
            "convert": ["--data", str(data)],
        }[command]
        out = tmp_path / "o"
        res = runner.invoke(cli.main, [command, *args, "--out", str(out)])
        assert res.exit_code == 0, res.output + res.stderr
        meta = json.loads((out / "run.json").read_text())
        assert meta["command"] == command
        assert sorted(meta["config"]) == sorted(SPECS[command])


def _child_env():
    """Environment whose PYTHONPATH starts at the endorse_dyn this suite imports."""
    src = str(Path(endorse_dyn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _declared_console_script():
    """The ``module, attr`` that pyproject.toml declares for ``endorse-dyn``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["endorse-dyn"]
    module, attr = entry.split(":")
    return module.strip(), attr.strip()


def test_console_entry_point_help(tmp_path):
    # Run the installed script when there is one; in a checkout that is only
    # on PYTHONPATH, call the declared [project.scripts] target the same way
    # the generated script would, with argv[0] set to the command name.
    script = shutil.which("endorse-dyn")
    if script is not None:
        argv, env = [script, "--help"], None
    else:
        module, attr = _declared_console_script()
        code = (
            "import sys; from importlib import import_module; "
            f"sys.argv[0] = 'endorse-dyn'; sys.exit(import_module({module!r}).{attr}())"
        )
        argv, env = [sys.executable, "-c", code, "--help"], _child_env()
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    for cmd in SUBCOMMANDS:
        assert cmd in proc.stdout


def test_module_entry_point_help(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "endorse_dyn", "--help"],
        capture_output=True, text=True, timeout=60, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Usage: endorse-dyn" in proc.stdout
    for cmd in SUBCOMMANDS:
        assert cmd in proc.stdout
