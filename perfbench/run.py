"""Benchmark for endorse-dyn: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run has three phases:

1. set-up: import the package in fresh interpreters, write the workload's
   inputs and run a tiny warm-up call of each command, several times each
   (medians are reported as ``setup_s``); half the repeats run before the
   timed phase and half after it;
2. timed phase: whole passes over the workload's inputs through the
   in-process CLI (``endorse_dyn.cli.main``) until ``--seconds`` are spent,
   at least two passes (one untraced and one traced pass with ``--trace 1``);
3. checks: the first output of each call is checked for correctness and
   every repeat must be byte-identical to it.

Every timed sample records its wall time, the CPU time of the benchmark's
processes and the machine's CPU steal; reported times are net of the share
of steal that fell on those processes (see `net_wall_s`).

The last line of standard output is the result as JSON; the full record
(provenance, samples, per-layer statistics) goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>/record.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("ops_per_s", "op/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("scores.score.calls", "count", "lower"),
    ("scores.score.busy_s", "s", "lower"),
    ("scores.root_degree_score.busy_s", "s", "lower"),
    ("scores.pagerank_score.busy_s", "s", "lower"),
    ("scores.springrank_score.busy_s", "s", "lower"),
    ("choice.sample_delta.calls", "count", "lower"),
    ("choice.sample_delta.busy_s", "s", "lower"),
    ("choice.utility.busy_s", "s", "lower"),
    ("choice.choice_probabilities.busy_s", "s", "lower"),
    ("sim.run.calls", "count", "lower"),
    ("sim.run.busy_s", "s", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim._step_rng.calls", "count", "lower"),
    ("sim._step_rng.busy_s", "s", "lower"),
    ("core.step.busy_s", "s", "lower"),
    ("core.rank_vector.busy_s", "s", "lower"),
    ("inference.fit.calls", "count", "lower"),
    ("inference.fit.busy_s", "s", "lower"),
    ("inference._rolled_scores.calls", "count", "lower"),
    ("inference._rolled_scores.busy_s", "s", "lower"),
    ("inference._loglik_and_grad.calls", "count", "lower"),
    ("inference._loglik_and_grad.busy_s", "s", "lower"),
    ("inference._maximize_beta.calls", "count", "lower"),
    ("inference._maximize_beta.busy_s", "s", "lower"),
    ("inference._standard_errors.busy_s", "s", "lower"),
    ("stability._newton_two_group.calls", "count", "lower"),
    ("stability._newton_two_group.busy_s", "s", "lower"),
    ("stability._newton_two_group.success_ratio", "ratio", "higher"),
    ("stability._full_residual.calls", "count", "lower"),
    ("stability._full_residual.busy_s", "s", "lower"),
    ("stability.fixed_point_jacobian.busy_s", "s", "lower"),
    ("stability.dprob_tensor.busy_s", "s", "lower"),
    ("stability._classify.calls", "count", "lower"),
    ("cli.bifurcate.rows_per_classified", "ratio", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("data.load_edge_list.busy_s", "s", "lower"),
    ("parallel.parallel_map.calls", "count", "lower"),
    ("parallel.parallel_map.items", "count", "lower"),
    ("parallel.parallel_map.workers_max", "count", "lower"),
    ("parallel.parallel_map.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SETUP_REPEATS = 7
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_package():
    """Import endorse_dyn from this checkout's src, or exit with status 1 and no result."""
    sys.path.insert(0, str(SRC))
    try:
        import endorse_dyn.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import endorse_dyn from {SRC}: {exc}")
    if Path(endorse_dyn.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: endorse_dyn imported from {endorse_dyn.cli.__file__}, not {SRC}")
    return endorse_dyn.cli.main


def steal_s() -> float:
    """CPU time the hypervisor has taken from this machine so far (0 if unknown).

    The counter is summed over all of the machine's CPUs.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_time() -> float:
    """User+sys CPU of this process and of its children that have ended."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def timed(fn) -> tuple:
    """Run fn(); return its result and a sample of wall, CPU and steal meanwhile."""
    steal0, c0, t0 = steal_s(), cpu_time(), time.perf_counter()
    out = fn()
    return out, {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_time() - c0,
                 "steal_s": steal_s() - steal0}


def net_wall_s(sample: dict) -> float:
    """A sample's wall time without the steal that fell on its threads.

    While the hypervisor holds a virtual CPU, the thread on it makes no
    progress and, with paravirtual steal accounting, is charged no CPU time;
    cpu + steal is then the time the threads held CPUs, and cpu / (cpu +
    steal) the share of it they ran.  Scaling wall time by that share counts
    each second of steal against the threads that were running, not against
    wall time one for one.  It assumes the steal fell on this benchmark's
    threads, which holds on an otherwise idle machine; the result is always
    in (0, wall].
    """
    held = sample["cpu_s"] + sample["steal_s"]
    return sample["wall_s"] * sample["cpu_s"] / held if sample["cpu_s"] > 0 else sample["wall_s"]


def fresh_import() -> None:
    """Start a new interpreter that imports the CLI module."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import endorse_dyn.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                   timeout=120, check=True)


# ---------------------------------------------------------------------------
# calls, passes and checks
# ---------------------------------------------------------------------------


def invoke(cli_main, args: list) -> bool:
    """Run one CLI command in-process; True when it exits with status 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main.main(args=args, prog_name="endorse-dyn", standalone_mode=False)
        return True
    except SystemExit as exc:
        return exc.code in (0, None)
    except Exception:  # any crash of the program under test is a failed call
        traceback.print_exc()
        return False


def digest(outdir: Path) -> dict:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*")) if p.is_file()
    }


class Runner:
    """Runs passes over a workload's inputs and checks every call's output."""

    def __init__(self, inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        # (input, call) -> ({file: sha256}, failed items) of the first, checked output
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def one_round(self, idx: int, call_fn) -> dict:
        """Time one input's calls; check them afterwards, outside the timing.

        Every round of a call writes to the same directory, so its run.json
        (which records --out) is comparable byte for byte across rounds.
        """
        calls = self.inputs[idx].calls
        dirs = [self.workdir / f"input{idx}-call{k}" for k in range(len(calls))]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        ok, sample = timed(lambda: [call_fn(call.args + ["--out", str(d)])
                                    for call, d in zip(calls, dirs)])
        rows = 0
        for k, (call, d, good) in enumerate(zip(calls, dirs, ok)):
            self.attempted += call.items
            bad, why = call.items, "the call failed"
            if good:
                branches = d / "branches.csv"
                if branches.exists():
                    rows += len(branches.read_text(encoding="utf-8").splitlines()) - 1
                hashes = digest(d)
                if (idx, k) not in self.reference:
                    self.reference[(idx, k)] = (hashes, call.check(d))
                first, first_bad = self.reference[(idx, k)]
                if hashes != first:
                    why = "output bytes differ from the first run"
                else:
                    bad, why = first_bad, "correctness check"
            if bad:
                self.failures.append(f"input {idx} call {k} ({' '.join(call.args[:3])}): "
                                     f"{bad} of {call.items} items failed: {why}")
            self.failed += bad
        return {"input": idx, **sample, "branch_rows": rows}

    def passes(self, seconds: float, min_passes: int, call_fn, before=None, after=None) -> list:
        """Whole passes over all inputs until `seconds` are spent (at least min_passes)."""
        rounds, spent, done = [], 0.0, 0
        while done < min_passes or spent + spent / done <= seconds:
            for idx in range(len(self.inputs)):
                if before:
                    before()
                r = self.one_round(idx, call_fn)
                if after:
                    r.update(after())
                rounds.append(r)
                spent += r["wall_s"]
            done += 1
        return rounds


def per_pass(rounds: list, key, n_inputs: int) -> float:
    """Median of a per-round quantity for each input, summed over inputs."""
    return sum(statistics.median(key(r) for r in rounds if r["input"] == i)
               for i in range(n_inputs))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(traced: list, untraced: list, n_inputs: int) -> dict:
    def stat(span, field):
        return per_pass(traced, lambda r: r["layers"].get(span, {}).get(field, 0), n_inputs)

    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = (per_pass(traced, net_wall_s, n_inputs)
                     - per_pass(untraced, net_wall_s, n_inputs))
        elif name == "cli.bifurcate.rows_per_classified":
            classified = stat("stability._classify", "calls")
            rows = per_pass(traced, lambda r: r["branch_rows"], n_inputs)
            value = rows / classified if classified else 0.0
        elif name.endswith(".workers_max"):
            span = name.rsplit(".", 1)[0]
            value = max(r["layers"].get(span, {}).get("workers_max", 0) for r in traced)
        elif name.endswith(".success_ratio"):
            span = name.rsplit(".", 1)[0]
            calls = stat(span, "calls")
            value = (calls - stat(span, "none_returns")) / calls if calls else 0.0
        else:
            span, field = name.rsplit(".", 1)
            value = stat(span, field)
        out[name] = {"value": value, "unit": unit}
    return out


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                                 capture_output=True, text=True, timeout=30, env=env)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_cpu_count": os.cpu_count(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ENDORSE_DYN_THREADS": os.environ.get("ENDORSE_DYN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    cli_main = import_package()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def make_inputs():
        inputs = wl.make(seed, workdir)
        for args in wl.warmup(workdir):
            if not invoke(cli_main, args + ["--out", str(workdir / "warmup")]):
                sys.exit(f"perfbench: warm-up call failed: {args}")
        return inputs

    import_samples, make_samples = [], []

    def set_up():
        # the two parts alternate, so that both medians see the same
        # stretch of machine speed
        import_samples.append(timed(fresh_import)[1])
        inputs, sample = timed(make_inputs)
        make_samples.append(sample)
        return inputs

    # Half the set-up repeats run before the timed phase and half after it,
    # so that the set-up medians span the run as the timed medians do.
    for _ in range((setup_repeats + 1) // 2):
        inputs = set_up()

    runner = Runner(inputs, workdir)
    call = lambda args: invoke(cli_main, args)  # noqa: E731
    n_inputs = len(inputs)
    record: dict = {"workload": wl.name, "op_unit": wl.op_unit,
                    "setup": {"import": import_samples, "inputs_and_warmup": make_samples}}
    if not trace:
        rounds = runner.passes(seconds, MIN_PASSES, call)
        record["rounds"] = rounds
    else:
        untraced = runner.passes(seconds / 2, 1, call)
        rec = spans.Recorder()
        traced_main = rec.wrap("cli.main", call)
        rec.install()
        try:
            traced = runner.passes(
                seconds / 2, 1, traced_main, before=rec.reset,
                after=lambda: {"layers": spans.summarize(rec.spans, rec.pool_items)})
        finally:
            rec.uninstall()
        metrics = layer_metrics(traced, untraced, n_inputs)
        record.update(untraced_rounds=untraced, traced_rounds=traced, absent=rec.absent)

    for _ in range(setup_repeats // 2):
        set_up()
    shutil.rmtree(workdir / "warmup")
    if not trace:
        metrics = {
            "ops_per_s": sum(i.ops for i in inputs) / per_pass(rounds, net_wall_s, n_inputs),
            "cpu_s": per_pass(rounds, lambda r: r["cpu_s"], n_inputs),
            "setup_s": (statistics.median(map(net_wall_s, import_samples))
                        + statistics.median(map(net_wall_s, make_samples))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}
    record.update(
        provenance=provenance(seed),
        output_sha256={f"input{i}-call{k}": h for (i, k), (h, _) in sorted(runner.reference.items())},
        attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
        fail_rate=runner.failed / runner.attempted, metrics=metrics,
    )
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_rate {rec['fail_rate']!r} ({rec['failed']} of {rec['attempted']} items failed)")
    for line in rec["failures"]:
        print(f"failure: {line}")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
