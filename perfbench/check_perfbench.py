"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    bifurcate_workload,
    fit_compare_workload,
    sweep_workload,
    write_sequence,
)

bench.import_package()

import endorse_dyn  # noqa: E402
from endorse_dyn import ModelParams, uniform_initial  # noqa: E402

TINY = {
    "sweep-small": sweep_workload("tiny-sweep", n=4, m=1, lam=0.9, steps=20, window=5),
    "sweep-large": sweep_workload("tiny-sweep-m", n=6, m=6, lam=0.9, steps=10, window=5),
    "fit-compare": fit_compare_workload("tiny-fit", sequences=1, n=4, periods=12),
    "bifurcate": bifurcate_workload("tiny-bifurcate", n=4, points=2),
}


@pytest.fixture
def workdir(request):
    d = HERE / "out" / "selftest" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(d, ignore_errors=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def traced(fn):
    rec = spans.Recorder()
    rec.install()
    try:
        fn()
    finally:
        rec.uninstall()
    return spans.summarize(rec.spans, rec.pool_items), rec


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_end_to_end(name, workdir):
    wl = TINY[name]
    rec = bench.run(wl, seed=5, seconds=0, trace=False, workdir=workdir, setup_repeats=1)
    assert set(rec["metrics"]) == {m for m, _, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in rec["metrics"].values())
    items = sum(c.items for i in wl.make(5, workdir) for c in i.calls)
    assert rec["attempted"] == bench.MIN_PASSES * items
    assert 0 <= rec["failed"] <= rec["attempted"]
    assert rec["provenance"]["seed"] == 5
    assert rec["output_sha256"]


def test_tiny_bifurcate_passes_its_checks(workdir):
    rec = bench.run(TINY["bifurcate"], seed=2, seconds=0, trace=False, workdir=workdir,
                    setup_repeats=1)
    assert rec["failed"] == 0, rec["failures"]


def test_traced_run_reports_every_layer_metric(workdir):
    rec = bench.run(TINY["bifurcate"], seed=2, seconds=0, trace=True, workdir=workdir,
                    setup_repeats=1)
    assert list(rec["metrics"]) == [m for m, _, _ in bench.PER_LAYER]
    assert rec["absent"] == []
    assert rec["metrics"]["stability._classify.calls"]["value"] > 0
    assert rec["metrics"]["scores.score.calls"]["value"] == 0


def test_run_makes_one_score_and_sample_call_per_step():
    steps = 7
    params = ModelParams(lam=0.9, beta=(1.0, 0.0), m=2, score_kind="pagerank", seed=3)
    stats, _ = traced(lambda: endorse_dyn.sim.run(params, a0=uniform_initial(5, 2), steps=steps))
    assert stats["sim.run"]["calls"] == 1
    assert stats["scores.score"]["calls"] == steps
    assert stats["scores.pagerank_score"]["calls"] == steps
    assert stats["choice.sample_delta"]["calls"] == steps
    assert stats["sim._step_rng"]["calls"] == steps
    assert stats["core.step"]["calls"] == steps


def test_compare_makes_three_fit_calls(workdir):
    workdir.mkdir(parents=True)
    data, a0 = workdir / "obs.csv", workdir / "obs-a0.csv"
    write_sequence(4, data, a0, n=4, periods=12)
    cli_main = bench.import_package()
    args = ["compare", "--data", str(data), "--warm-start", str(a0),
            "--out", str(workdir / "cmp")]
    stats, _ = traced(lambda: bench.invoke(cli_main, args))
    assert stats["inference.compare_scores"]["calls"] == 1
    assert stats["inference.fit"]["calls"] == 3
    assert stats["data.load_edge_list"]["calls"] == 2


def test_two_traced_runs_give_identical_counts(workdir):
    def counts(sub):
        rec = bench.run(TINY["bifurcate"], seed=3, seconds=0, trace=True,
                        workdir=workdir / sub, setup_repeats=1)
        return [{span: (st["calls"], st["none_returns"], st.get("items"))
                 for span, st in r["layers"].items()} for r in rec["traced_rounds"]]

    first, second = counts("a"), counts("b")
    assert first == second
    assert first[0]["stability._newton_two_group"][0] > 0


def test_traced_functions_are_restored_after_the_run():
    original = endorse_dyn.inference.score
    traced(lambda: None)
    assert endorse_dyn.inference.score is original
    assert endorse_dyn.scores.score is original


def test_missing_layer_is_recorded_absent(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "sim", spans.TRACED["sim"] + ("no_such_function",))
    monkeypatch.setitem(spans.TRACED, "gone", ("anything",))
    _, rec = traced(lambda: None)
    assert rec.absent == ["sim.no_such_function", "gone.anything"]


def test_net_wall_time_charges_steal_to_the_running_threads():
    def sample(wall, cpu, steal):
        return {"wall_s": wall, "cpu_s": cpu, "steal_s": steal}

    assert bench.net_wall_s(sample(2.0, 1.9, 0.0)) == 2.0
    # one busy thread: each second of steal is a second of wall time
    assert bench.net_wall_s(sample(3.0, 2.0, 1.0)) == 2.0
    # two busy threads losing 1 s each: 2 s of steal cost 1 s of wall time
    assert bench.net_wall_s(sample(3.0, 4.0, 2.0)) == 2.0
    assert bench.net_wall_s(sample(0.5, 0.0, 0.3)) == 0.5


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == bench.PER_LAYER
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_fails_without_the_package(workdir):
    (workdir / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    for f in HERE.glob("*.py"):
        shutil.copy(f, workdir / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bifurcate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
