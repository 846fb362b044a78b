"""Experiment runner: declarative config in, deterministic CSV/JSON out.

Subcommands: validate, run, report.  Exit codes: 0 ok, 2 config
error, 3 simulation diverged, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .coefficients import default_sample_points, validate_field
from .config import ORACLES, ExperimentConfig, _parse_scalar, load_config
from .coupling import _resolve_tol, coupling_time_ladder
from .errors import ConfigError, CoupleMCError, SimulationDivergedError, ValidationError
from .fk_solver import (ResultTable, SolveRequest, difference_ladder, expected_regime,
                        fit_result_table, placement, solve_u)
from .oracles import (RunningMaxQuery, bm_coupling_expectation, heat_kernel,
                      running_max_bounds, sgn_drift_density)
from .registry import build_field, build_terminal
from .sde_engine import RngStream, TimeGrid, rung_means

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "COUPLEMC_OUTPUT_ROOT"


def _run_validate(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field = build_field(cfg.field_name, cfg.field_params)
    points = default_sample_points(field.dim)
    report = validate_field(field, points, times=(0.0, cfg.horizon / 2, cfg.horizon))
    rows = [(key, float(v)) for key, v in asdict(report).items()]
    table = ResultTable(columns=["metric", "value"], rows=rows)
    return table, {"passed": report.passed, "report": report.summary()}


def _setup(cfg: ExperimentConfig) -> tuple:
    """(field, terminal, grid, x, zs) of a couple, solve or modulus config,
    checked as ``validate`` checks them before any draw: the base point x
    and the unit direction e by ``fk_solver.placement`` (the origin and e_1
    by default), the ladder points zs = x + r e as finite, the terminal
    (None unless the kind reads one) by one evaluation at the origin."""
    field = build_field(cfg.field_name, cfg.field_params)
    d = field.dim
    x, e = placement(np.zeros(d) if cfg.base_point is None else cfg.base_point,
                     np.eye(d)[0] if cfg.direction is None else cfg.direction, d)
    with np.errstate(over="ignore"):
        zs = [x + r * e for r in cfg.ladder]
    if not np.isfinite(zs).all():
        raise ValidationError("every ladder point base_point + r e must be finite")
    terminal = None
    if cfg.terminal_name is not None:
        terminal = build_terminal(cfg.terminal_name, cfg.terminal_params)
        terminal(np.zeros(d))
    return field, terminal, TimeGrid(horizon=cfg.horizon, steps=cfg.steps), x, zs


def _run_couple(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field, _, grid, x, zs = _setup(cfg)
    t = cfg.eval_horizon if cfg.eval_horizon is not None else cfg.horizon
    tol = _resolve_tol(cfg.couple_tol, grid, field)
    # disjoint path blocks per distance keep the rows independent
    tau_step, capped = coupling_time_ladder(field, x, zs, t, grid, cfg.n_paths,
                                            RngStream(cfg.seed), couple_tol=tol)
    rows = [(r, t, cfg.n_paths, *tau, frac, tol) for r, (tau, (frac, _)) in
            zip(cfg.ladder, rung_means(cfg.n_paths, capped, tau_step >= 0))]
    table = ResultTable(
        columns=["distance", "horizon", "n_paths", "mean_tau_capped",
                 "stderr", "fraction_coupled", "couple_tol"],
        rows=rows)
    return table, fit_result_table(table)


def _run_solve(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field, terminal, grid, x, _ = _setup(cfg)
    req = SolveRequest(field=field, terminal=terminal, eval_point=x,
                       n_paths=cfg.n_paths, grid=grid)
    est, se = solve_u(req, RngStream(cfg.seed))
    table = ResultTable(
        columns=["estimate", "stderr", "n_paths", "horizon", "dt"],
        rows=[(est, se, cfg.n_paths, cfg.horizon, grid.dt)])
    return table, {"estimate": est, "stderr": se}


def _run_modulus(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field, terminal, grid, x, zs = _setup(cfg)
    tol = _resolve_tol(cfg.couple_tol, grid, field)
    req = SolveRequest(field=field, terminal=terminal, eval_point=x,
                       n_paths=cfg.n_paths, grid=grid)
    # disjoint path blocks per distance keep the rows independent
    diffs, taus = difference_ladder(req, zs, RngStream(cfg.seed), tol)
    rows = [(r, abs(mean), se, *tau, cfg.n_paths, grid.dt, tol) for r, ((mean, se), tau)
            in zip(cfg.ladder, rung_means(cfg.n_paths, diffs, taus))]
    table = ResultTable(
        columns=["distance", "delta_u", "stderr_u", "tau_mean", "stderr_tau",
                 "n_paths", "dt", "couple_tol"],
        rows=rows)
    return table, {**fit_result_table(table), "regime_expected": expected_regime(field)}


def _run_oracle(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    p = {**ORACLES[cfg.oracle_name], **cfg.oracle_params}
    name, t = cfg.oracle_name, p["t"]
    if name in ("sgn", "heat"):
        ys = np.linspace(p["y_min"], p["y_max"], p["y_count"])
        if name == "sgn":
            rows = [(float(y), float(sgn_drift_density(p["theta"], t, p["x"], y)))
                    for y in ys]
        else:
            rows = [(float(y), heat_kernel([[p["a0"]]], [p["b0"]], t, [p["x"]], [y]))
                    for y in ys]
        return ResultTable(columns=["y", "density"], rows=rows), {}
    if name == "running-max":
        rows = []
        for x in p["x_values"]:
            b = running_max_bounds(RunningMaxQuery(t=t, x=x, c1=p["c1"], c2=p["c2"]))
            rows.append((x, b.upper_tail, b.lower_level, b.exact))
        return ResultTable(
            columns=["x", "upper_tail", "lower_level", "exact"], rows=rows), {}
    # bm-coupling
    rows = [(d0, bm_coupling_expectation(d0, t)) for d0 in p["d0_values"]]
    return ResultTable(columns=["d0", "expectation"], rows=rows), {}


_RUNNERS = {
    "validate": _run_validate,
    "couple": _run_couple,
    "solve": _run_solve,
    "modulus": _run_modulus,
    "oracle": _run_oracle,
}


def output_root(override=None) -> str:
    if override:
        return override
    return os.environ.get(OUTPUT_ROOT_ENV, "runs")


def run_experiment(cfg: ExperimentConfig, out_root, run_dir=None) -> str:
    """Execute a config and persist results.csv + summary.json; returns the
    run directory."""
    start = time.monotonic()
    table, extras = _RUNNERS[cfg.kind](cfg)
    wall = time.monotonic() - start
    if run_dir is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
        run_dir = os.path.join(out_root, f"{cfg.kind}-{stamp}-seed{cfg.seed}")
    os.makedirs(run_dir, exist_ok=True)
    table.write_csv(os.path.join(run_dir, "results.csv"))
    summary = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "version": f"couplemc {__version__}",
        "config": cfg.resolved(),
        "wall_time_s": wall,
    }
    summary.update(extras)
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir


def _cmd_report(run_dir) -> int:
    path = os.path.join(run_dir, "results.csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [tuple(map(_parse_scalar, row)) for row in reader]
    table = ResultTable(columns=columns, rows=rows)
    fits = fit_result_table(table) if "distance" in columns else {}
    json.dump(fits, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplemc",
        description="Monte Carlo experiments on coupled diffusions and "
                    "parabolic PDE solutions.")
    parser.add_argument("--version", action="version",
                        version=f"couplemc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config (and its "
                                "coefficient field) without running")
    p_validate.add_argument("config")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-root", default=None,
                       help=f"run directory root (default $"
                            f"{OUTPUT_ROOT_ENV} or ./runs)")
    p_run.add_argument("--run-dir", default=None,
                       help="exact output directory (overrides the "
                            "timestamped default)")

    p_report = sub.add_parser("report", help="re-emit fits from a run dir")
    p_report.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args.run_dir)
        cfg = load_config(args.config)
        if args.command == "validate":
            if cfg.field_name is not None:
                _, extras = _run_validate(cfg)
                print(extras["report"])
                if not extras["passed"]:
                    return EXIT_CONFIG
            # everything run does before the first draw; an oracle's
            # table is a closed form, computed and not written
            if cfg.kind == "oracle":
                _run_oracle(cfg)
            elif cfg.kind != "validate":
                _setup(cfg)
            print(f"config ok: kind={cfg.kind} seed={cfg.seed}")
            return EXIT_OK
        run_dir = run_experiment(cfg, output_root(args.output_root),
                                 run_dir=args.run_dir)
        print(run_dir)
        return EXIT_OK
    except SimulationDivergedError as exc:
        _emit_error("simulation-diverged", exc)
        return EXIT_DIVERGED
    except (ConfigError, ValidationError) as exc:
        _emit_error("config-error", exc)
        return EXIT_CONFIG
    except CoupleMCError as exc:
        _emit_error("error", exc)
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error("io-error", exc)
        return EXIT_IO


def _emit_error(kind: str, exc: Exception) -> None:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
