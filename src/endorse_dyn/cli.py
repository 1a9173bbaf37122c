"""Command-line surface: simulate, sweep, bifurcate, fit, compare, convert.

Every command resolves its configuration from three layers (defaults, then
a key=value --config file, then explicit flags), writes all outputs into
--out, and drops a `run.json` there with the fully resolved configuration,
so rerunning with the same run.json settings reproduces every file byte
for byte.  Exit codes: 0 success, 1 numeric/convergence failure, 2 usage,
format, or domain error.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import SCORE_KINDS, ModelParams, uniform_initial
from .data import (
    InteractionSequence,
    _write_csv,
    aggregate_counts,
    convert_rankings_topk,
    load_edge_list,
    load_rankings,
    restrict_top_placers,
    save_edge_list,
)
from .errors import ConfigError, DomainError, FormatError, NumericError
from .inference import compare_scores, criticality_report, fit
from .sim import run, simulate_cells, variance_sweep
from .stability import two_group_equilibria

REQUIRED = object()

TABLE1_HEADER = "dataset,score,lambda,se_lambda,beta1,se_beta1,beta2,se_beta2,loglik"
TABLE2_HEADER = "dataset,score,beta1,se_beta1,beta1_critical,classification,significant"


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _parse_grid(text: str) -> list[float]:
    """START:STOP:NUM -> NUM evenly spaced values, endpoints included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be START:STOP:NUM")
    try:
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("grid must be START:STOP:NUM with numeric fields")
    if num < 1:
        raise ValueError("grid NUM must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(stop - start)):
        raise ValueError("grid START, STOP and STOP - START must be finite")
    return [float(x) for x in np.linspace(start, stop, num)]


def _resolve(spec: dict, flags: dict, config_path: str | None) -> dict:
    """Layer defaults, config file, and flags; cast; demand required keys."""
    cfg_file = _parse_config_file(config_path) if config_path else {}
    unknown = set(cfg_file) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, (cast, default, _) in spec.items():
        value = flags[key] if flags[key] is not None else cfg_file.get(key, default)
        if value is REQUIRED:
            raise click.UsageError(f"missing required key: {key}")
        if isinstance(value, str):
            try:
                value = (_parse_bool if cast is bool else cast)(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r} ({exc})")
        out[key] = value
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x) -> str:
    return repr(float(x))


def _guarded(fn):
    """Map the error taxonomy onto exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DomainError, FormatError, ConfigError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            if exc.diagnostics:
                click.echo(json.dumps(exc.diagnostics, indent=2, sort_keys=True), err=True)
            sys.exit(1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="endorse-dyn")
def main():
    """Endorsement dynamics: simulation, regime analysis, and fitting."""


def _command(name: str, spec: dict):
    """Register ``body(cfg)`` as command `name`.

    `spec` maps each key to ``(cast, default, help)``.  The command gets
    --config and one flag per key, in spec order (a ``bool`` key is an
    on/off pair, ``--key/--no-key``, so a flag can override the config file
    either way); `body` receives the configuration `_resolve` builds from
    them.  Once `body` returns, that configuration goes to ``run.json`` in
    --out, after every other output; a body that raises writes none.
    """

    def decorate(body):
        def command(config_path, **flags):
            cfg = _resolve(spec, flags, config_path)
            body(cfg)
            _write_json(Path(cfg["out"]) / "run.json",
                        {"command": name, "config": cfg, "version": __version__})

        command.__doc__ = body.__doc__
        command = _guarded(command)
        for key, (cast, _, help_text) in reversed(spec.items()):
            flag = f"--{key.replace('_', '-')}"
            if cast is bool:
                decl, kind = f"{flag}/--no-{flag[2:]}", {}
            else:
                decl, kind = flag, {"type": cast if cast in (int, float) else str}
            command = click.option(decl, key, default=None, help=help_text,
                                   **kind)(command)
        command = click.option("--config", "config_path", type=str, default=None,
                               help="key=value file; flags override it")(command)
        return main.command(name)(command)

    return decorate


# spec rows shared by several commands, spread into each spec in place
_SCORE = {"score": (str, REQUIRED, " | ".join(SCORE_KINDS))}
_MODEL = {**_SCORE, "n": (int, REQUIRED, "number of nodes"),
          "m": (int, 1, "endorsements per step")}
_OUT = {"out": (str, REQUIRED, "output directory")}
_SEED_OUT = {"seed": (int, 0, "base RNG seed"), **_OUT}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_SPEC = {
    **_MODEL,
    "lambda": (float, REQUIRED, "memory parameter in [0, 1]"),
    "beta1": (float, 0.0, "prestige weight"),
    "beta2": (float, 0.0, "proximity weight"),
    "steps": (int, 2000, "simulation steps"),
    **_SEED_OUT,
}


@_command("simulate", _SIM_SPEC)
def cmd_simulate(cfg):
    """Run one trajectory; write trajectory.csv and final_adjacency.csv."""
    params = ModelParams(
        lam=cfg["lambda"], beta=(cfg["beta1"], cfg["beta2"]), m=cfg["m"],
        score_kind=cfg["score"], seed=cfg["seed"],
    )
    traj = run(params, a0=uniform_initial(cfg["n"], cfg["m"]), steps=cfg["steps"])
    outdir = _outdir(cfg)
    _write_csv(outdir / "trajectory.csv", "t,node,gamma", (f"{t},{node},{_fmt(g)}"
               for t, gamma in enumerate(traj.gamma_t) for node, g in enumerate(gamma)))
    _write_csv(outdir / "final_adjacency.csv", None, (map(_fmt, row) for row in traj.a_final))
    click.echo(f"wrote {outdir}/trajectory.csv ({traj.steps} steps)")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_SPEC = {
    **_MODEL,
    "lambda": (float, REQUIRED, "memory parameter in [0, 1]"),
    "grid_beta1": (_parse_grid, REQUIRED, "START:STOP:NUM"),
    "grid_beta2": (_parse_grid, [0.0], "START:STOP:NUM"),
    "steps": (int, 2000, "simulation steps"),
    "window": (int, 500, "averaging window (final steps)"),
    **_SEED_OUT,
}


@_command("sweep", _SWEEP_SPEC)
def cmd_sweep(cfg):
    """Long-run rank-variance grid over (beta1, beta2); one row per cell."""
    params = ModelParams(lam=cfg["lambda"], m=cfg["m"], score_kind=cfg["score"],
                         seed=cfg["seed"])
    rows = variance_sweep(params, cfg["n"], cfg["grid_beta1"], cfg["grid_beta2"],
                          steps=cfg["steps"], window=cfg["window"])
    outdir = _outdir(cfg)
    _write_csv(outdir / "variance.csv", "beta1,beta2,variance", (map(_fmt, row) for row in rows))
    click.echo(f"wrote {outdir}/variance.csv ({len(rows)} cells)")


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------

_BIF_SPEC = {
    **_MODEL,
    "grid_beta1": (_parse_grid, REQUIRED, "START:STOP:NUM"),
    "beta2": (float, 0.0, "proximity weight"),
    "overlay": (bool, False, "also simulate long-run gamma at each beta1"),
    "lambda": (float, 0.9995, "memory parameter in [0, 1]"),
    "steps": (int, 50_000, "simulation steps"),
    "window": (int, 500, "overlay averaging window"),
    **_SEED_OUT,
}


@_command("bifurcate", _BIF_SPEC)
def cmd_bifurcate(cfg):
    """Two-group equilibrium branches over beta1, with stability flags.

    Writes every two-group root once per beta1, over all elite sizes;
    egalitarian roots carry k_elite = 0.  With --overlay, long-memory
    simulations (lambda and steps configurable) add observed long-run gamma
    points for comparison against the stable branches.
    """
    params = ModelParams(lam=cfg["lambda"], beta=(0.0, cfg["beta2"]), m=cfg["m"],
                         score_kind=cfg["score"], seed=cfg["seed"])
    grid = cfg["grid_beta1"]
    if cfg["overlay"]:
        cells = simulate_cells(params, cfg["n"], [(b1, cfg["beta2"]) for b1 in grid],
                               steps=cfg["steps"], window=cfg["window"])
    rows = two_group_equilibria(params, cfg["n"], grid)
    outdir = _outdir(cfg)
    _write_csv(outdir / "branches.csv", "beta1,k_elite,a,b,stable,max_eig_real", (
        [_fmt(b1), str(eq.k_elite), _fmt(eq.a), _fmt(eq.b), "true" if eq.stable else "false",
         _fmt(eq.max_eig_real)] for b1, eq in rows))
    if cfg["overlay"]:
        _write_csv(outdir / "overlay.csv", "beta1,node,gamma", (f"{_fmt(b1)},{node},{_fmt(g)}"
                   for b1, (gam, _) in zip(grid, cells) for node, g in enumerate(gam)))
    click.echo(f"wrote {outdir}/branches.csv ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# fit / compare
# ---------------------------------------------------------------------------

_FIT_SPEC = {
    "data": (str, REQUIRED, "interchange CSV"),
    **_SCORE,
    "warm_start": (str, None, "edge CSV aggregated into A(0)"),
    "restarts": (int, 5, "lambda restarts"),
    **_OUT,
}

_COMPARE_SPEC = {key: row for key, row in _FIT_SPEC.items() if key != "score"}


def _load_sequence(data_path: str, warm_start: str | None) -> InteractionSequence:
    seq = load_edge_list(data_path)
    if not warm_start:
        return seq
    ws = load_edge_list(warm_start)
    index = {lab: i for i, lab in enumerate(seq.node_labels)}
    kept = [i for i, lab in enumerate(ws.node_labels) if lab in index]
    if len(kept) < ws.n:
        click.echo(f"warm start: dropped {ws.n - len(kept)} labels absent from the data",
                   err=True)
    rows = [index[ws.node_labels[i]] for i in kept]
    a0 = np.zeros((seq.n, seq.n))
    a0[np.ix_(rows, rows)] = aggregate_counts(ws)[np.ix_(kept, kept)]
    return seq.with_a0(a0)


def _write_tables(outdir: Path, dataset: str, seq: InteractionSequence, results) -> None:
    """table1.csv with one row per fit; criticality.csv for the fits with SEs."""
    _write_csv(outdir / "table1.csv", TABLE1_HEADER, (
        [dataset, fr.score_kind, *map(_fmt, [fr.lambda_hat, se[0], fr.beta_hat[0], se[1],
                                              fr.beta_hat[1], se[2], fr.loglik])]
        for fr in results for se in [fr.se or (float("nan"),) * 3]))
    _write_csv(outdir / "criticality.csv", TABLE2_HEADER, (
        [dataset, rep.score_kind, _fmt(rep.beta1_hat), _fmt(rep.se_beta1),
         _fmt(rep.beta1_critical), rep.classification, "true" if rep.significant else "false"]
        for fr in results if fr.se is not None
        for rep in [criticality_report(fr, seq.n, seq.m_bar)]))


@_command("fit", _FIT_SPEC)
def cmd_fit(cfg):
    """Maximum-likelihood fit of (lambda, beta) for one score kind."""
    seq = _load_sequence(cfg["data"], cfg["warm_start"])
    fr = fit(seq, cfg["score"], restarts=cfg["restarts"])
    dataset = Path(cfg["data"]).stem
    outdir = _outdir(cfg)
    _write_json(outdir / "fit.json", asdict(fr))
    _write_tables(outdir, dataset, seq, [fr])
    for w in fr.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(
        f"{dataset} {fr.score_kind}: lambda={fr.lambda_hat:.4f} "
        f"beta=({fr.beta_hat[0]:.4f}, {fr.beta_hat[1]:.4f}) loglik={fr.loglik:.4f}"
    )


@_command("compare", _COMPARE_SPEC)
def cmd_compare(cfg):
    """Fit all three score kinds and rank them by likelihood."""
    seq = _load_sequence(cfg["data"], cfg["warm_start"])
    table = compare_scores(seq, restarts=cfg["restarts"])
    dataset = Path(cfg["data"]).stem
    outdir = _outdir(cfg)
    _write_json(outdir / "compare.json", {
        "best": table.best,
        "errors": table.errors,
        "results": [asdict(fr) for fr in table.results],
    })
    _write_tables(outdir, dataset, seq, table.results)
    for fr in table.results:
        for w in fr.warnings:
            click.echo(f"warning: {fr.score_kind}: {w}", err=True)
    for kind, msg in sorted(table.errors.items()):
        click.echo(f"warning: {kind} failed: {msg}", err=True)
    click.echo(f"best score kind for {dataset}: {table.best}")


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

_CONVERT_SPEC = {
    "data": (str, None, "interchange CSV to transform"),
    "rankings": (str, None, "CSV period,source,target,rank to convert via top-k"),
    "k": (int, 5, "top-k cutoff for rankings"),
    "top_count": (int, None, "keep this many most-endorsed nodes"),
    "window": (str, None, "period window LO:HI"),
    **_OUT,
}


@_command("convert", _CONVERT_SPEC)
def cmd_convert(cfg):
    """Normalize and filter data into the interchange format."""
    if (cfg["data"] is None) == (cfg["rankings"] is None):
        raise click.UsageError("provide exactly one of --data or --rankings")
    if cfg["rankings"]:
        mats, labels, periods = load_rankings(cfg["rankings"])
        seq = convert_rankings_topk(mats, k=cfg["k"], node_labels=labels,
                                    period_labels=periods)
    else:
        seq = load_edge_list(cfg["data"])
    win = None
    if cfg["window"] is not None:
        parts = str(cfg["window"]).split(":")
        if len(parts) != 2:
            raise ConfigError(f"window must be LO:HI, got {cfg['window']!r}")
        win = (parts[0], parts[1])
    if cfg["top_count"] is not None or win is not None:
        count = seq.n if cfg["top_count"] is None else cfg["top_count"]
        seq = restrict_top_placers(seq, count, window=win)
    outdir = Path(cfg["out"])
    save_edge_list(seq, outdir / "edges.csv")  # makes outdir once its checks pass
    click.echo(f"wrote {outdir}/edges.csv ({seq.n} nodes, {seq.t_len} periods)")


if __name__ == "__main__":
    main()
