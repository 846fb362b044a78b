"""Experiment runner: declarative config in, deterministic CSV/JSON out.

Subcommands: validate, run, oracle, report.  Exit codes: 0 ok, 2 config
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

import numpy as np

from . import __version__
from .coefficients import default_sample_points, validate_field
from .config import ExperimentConfig, _count, _real, _reals, load_config
from .coupling import _resolve_tol, coupling_time_expectation
from .errors import ConfigError, CoupleMCError, SimulationDivergedError, ValidationError
from .fk_solver import (ModulusExperimentConfig, ResultTable, fit_result_table,
                        modulus_experiment, solve_u, SolveRequest)
from .oracles import (RunningMaxQuery, bm_coupling_expectation, heat_kernel,
                      running_max_bounds, sgn_drift_density)
from .registry import build_field, build_terminal
from .sde_engine import RngStream, TimeGrid, as_point

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "COUPLEMC_OUTPUT_ROOT"


def _run_validate(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field = build_field(cfg.field_name, cfg.field_params)
    points = default_sample_points(field.dim)
    report = validate_field(field, points, times=(0.0, cfg.horizon / 2, cfg.horizon))
    rows = [
        ("passed", float(report.passed)),
        ("eig_min", report.eig_min),
        ("eig_max", report.eig_max),
        ("eig_lo_required", report.eig_lo_required),
        ("eig_hi_required", report.eig_hi_required),
        ("b_max", report.b_max),
        ("c_max", report.c_max),
        ("asymmetry_max", report.asymmetry_max),
        ("n_points", float(report.n_points)),
    ]
    table = ResultTable(columns=["metric", "value"], rows=rows)
    return table, {"passed": report.passed, "report": report.summary()}


def _vector(cfg: ExperimentConfig, key: str, dim: int, default) -> np.ndarray:
    value = getattr(cfg, key)
    if value is None:
        return default
    try:
        v = as_point(value, dim, key)
    except ValidationError as e:
        raise ConfigError(str(e)) from None
    if not np.isfinite(v).all():
        raise ConfigError(f"{key} must be finite")
    return v


def _placement(cfg: ExperimentConfig, field) -> tuple[np.ndarray, np.ndarray]:
    """base_point and direction as finite vectors of length field.dim (the
    origin and e_1 when absent); the direction must have a nonzero,
    finite length."""
    x = _vector(cfg, "base_point", field.dim, np.zeros(field.dim))
    e = _vector(cfg, "direction", field.dim, np.eye(field.dim)[0])
    if not 0.0 < np.linalg.norm(e) < np.inf:
        raise ConfigError("direction must have a nonzero, finite length")
    return x, e


def _run_couple(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field = build_field(cfg.field_name, cfg.field_params)
    grid = TimeGrid(horizon=cfg.horizon, steps=cfg.steps)
    rng = RngStream(cfg.seed)
    t = cfg.eval_horizon if cfg.eval_horizon is not None else cfg.horizon
    tol = _resolve_tol(cfg.couple_tol, grid, field)
    x, e = _placement(cfg, field)
    e = e / np.linalg.norm(e)
    rows = []
    for i, r in enumerate(cfg.ladder):
        est = coupling_time_expectation(
            field, x, x + r * e, t, grid, cfg.n_paths, rng, couple_tol=tol,
            path_offset=i * cfg.n_paths)
        rows.append((r, t, cfg.n_paths, est.mean, est.stderr,
                     est.fraction_coupled, tol))
    table = ResultTable(
        columns=["distance", "horizon", "n_paths", "mean_tau_capped",
                 "stderr", "fraction_coupled", "couple_tol"],
        rows=rows)
    return table, fit_result_table(table)


def _terminal(cfg: ExperimentConfig, field):
    """The config's terminal, evaluated once at the origin so that a center
    or coeffs of the wrong length stops the run before any path is drawn."""
    terminal = build_terminal(cfg.terminal_name, cfg.terminal_params)
    terminal(np.zeros(field.dim))
    return terminal


def _run_solve(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field = build_field(cfg.field_name, cfg.field_params)
    terminal = _terminal(cfg, field)
    grid = TimeGrid(horizon=cfg.horizon, steps=cfg.steps)
    req = SolveRequest(field=field, terminal=terminal,
                       eval_point=_placement(cfg, field)[0],
                       n_paths=cfg.n_paths, grid=grid)
    est, se = solve_u(req, RngStream(cfg.seed))
    table = ResultTable(
        columns=["estimate", "stderr", "n_paths", "horizon", "dt"],
        rows=[(est, se, cfg.n_paths, cfg.horizon, grid.dt)])
    return table, {"estimate": est, "stderr": se}


def _run_modulus(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    field = build_field(cfg.field_name, cfg.field_params)
    terminal = _terminal(cfg, field)
    grid = TimeGrid(horizon=cfg.horizon, steps=cfg.steps)
    x, e = _placement(cfg, field)
    mcfg = ModulusExperimentConfig(
        field=field, terminal=terminal, base_point=x, direction=e,
        distances=cfg.ladder, grid=grid, n_paths=cfg.n_paths,
        couple_tol=cfg.couple_tol)
    table = modulus_experiment(mcfg, RngStream(cfg.seed))
    return table, dict(table.metadata)


def _oracle_y_grid(p: dict) -> np.ndarray:
    n = _count(p, "oracle.y_count", 161)
    if n < 1:
        raise ConfigError("oracle.y_count must be >= 1")
    return np.linspace(_real(p, "oracle.y_min", -8.0), _real(p, "oracle.y_max", 8.0), n)


def _run_oracle(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    # keyed as in the config file, so that a bad value is named oracle.<key>
    p = {f"oracle.{k}": v for k, v in cfg.oracle_params.items()}
    name = cfg.oracle_name
    t = _real(p, "oracle.t", 1.0)
    if name == "sgn":
        theta = _real(p, "oracle.theta", 1.0)
        x = _real(p, "oracle.x", 0.0)
        ys = _oracle_y_grid(p)
        rows = [(float(y), float(sgn_drift_density(theta, t, x, y))) for y in ys]
        return ResultTable(columns=["y", "density"], rows=rows), {}
    if name == "heat":
        a0 = _real(p, "oracle.a0", 1.0)
        b0 = _real(p, "oracle.b0", 0.0)
        x = _real(p, "oracle.x", 0.0)
        ys = _oracle_y_grid(p)
        rows = [(float(y), heat_kernel([[a0]], [b0], t, [x], [y])) for y in ys]
        return ResultTable(columns=["y", "density"], rows=rows), {}
    if name == "running-max":
        c1 = _real(p, "oracle.c1", 1.0)
        c2 = _real(p, "oracle.c2", 1.0)
        rows = []
        for x in _reals(p, "oracle.x_values", [0.5, 1.0, 2.0]):
            b = running_max_bounds(RunningMaxQuery(t=t, x=x, c1=c1, c2=c2))
            rows.append((x, b.upper_tail, b.lower_level, b.exact))
        return ResultTable(
            columns=["x", "upper_tail", "lower_level", "exact"], rows=rows), {}
    # bm-coupling
    d0s = _reals(p, "oracle.d0_values", [0.2, 0.1, 0.05])
    rows = [(d0, bm_coupling_expectation(d0, t)) for d0 in d0s]
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
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return run_dir


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _cmd_report(run_dir) -> int:
    path = os.path.join(run_dir, "results.csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [tuple(_parse_csv_cell(c) for c in row) for row in reader]
    table = ResultTable(columns=columns, rows=rows)
    fits = fit_result_table(table) if "distance" in columns else {}
    json.dump(fits, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _parse_csv_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


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

    p_oracle = sub.add_parser("oracle", help="emit closed-form oracle tables")
    p_oracle.add_argument("config")
    p_oracle.add_argument("--output-root", default=None)
    p_oracle.add_argument("--run-dir", default=None)

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
                table, extras = _run_validate(cfg)
                print(extras["report"])
                if not extras["passed"]:
                    return EXIT_CONFIG
            if cfg.kind in ("couple", "solve", "modulus"):
                field = build_field(cfg.field_name, cfg.field_params)
                _placement(cfg, field)
                if cfg.kind != "couple":
                    _terminal(cfg, field)
            print(f"config ok: kind={cfg.kind} seed={cfg.seed}")
            return EXIT_OK
        if args.command == "oracle" and cfg.kind != "oracle":
            raise ConfigError("the oracle subcommand needs kind = oracle")
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
