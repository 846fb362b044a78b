"""Feynman-Kac Monte Carlo estimates of u(T, x) and of coupled-pair
differences u(T, x) - u(T, z), plus the modulus-of-continuity experiment
over a ladder of separations."""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .analysis import fit_log_corrected, fit_power_law
from .coefficients import CoefficientField, classify_dini
from .coupling import _resolve_tol, _unmet_pairs, simulate_coupled_block
from .errors import ValidationError
from .sde_engine import (RngStream, TimeGrid, as_point, mean_stderr, path_tile,
                         run_path_blocks, simulate_terminal)


@dataclass(frozen=True)
class SolveRequest:
    """One pointwise Feynman-Kac evaluation."""

    field: CoefficientField
    terminal: Callable  # (n, d) -> (n,)
    eval_point: np.ndarray
    n_paths: int
    grid: TimeGrid

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValidationError("n_paths must be >= 2")

    @property
    def horizon(self) -> float:
        return self.grid.horizon


def solve_u(req: SolveRequest, rng: RngStream,
            path_offset: int = 0) -> tuple[float, float]:
    """Estimate u(T, x) = E[f(X_T) exp(int c)] with its standard error,
    simulating the paths in tiles of ``sde_engine.path_tile`` paths."""

    def worker(lo, hi):
        X, w = simulate_terminal(req.field, req.eval_point, req.grid, rng, lo, hi)
        return req.terminal(X) * np.exp(w)

    vals = run_path_blocks(req.n_paths, worker, path_offset=path_offset,
                           block_size=path_tile(req.grid, req.field.dim))
    return mean_stderr(vals)


def solve_difference_coupled(req: SolveRequest, z, rng: RngStream,
                             couple_tol: float | None = None,
                             path_offset: int = 0, with_taus: bool = False):
    """Paired estimate of u(T, x) - u(T, z) over reflection-coupled pairs.

    Per-path differences vanish on paths that couple before the horizon
    (up to the pre-coupling c-integral discrepancy), so the variance
    shrinks with |x - z|.  With with_taus=True also returns the per-path
    capped coupling times.

    For a field that declares c = 0 (``c_sup == 0``) a pair that meets
    adds exactly 0.0, so only the unmet pairs are stepped, up to the
    horizon, and a leg is not stepped after its pair meets (a blow-up
    after the meeting is therefore not reported; bounded coefficients
    and the clamped uniforms cannot produce one).  The unmet pairs give
    f(X_T) - f(Z_T), the bytes of the terminal driver's
    f(X_T) exp(0) - f(Z_T) exp(0).  Other fields carry both legs with
    their c-integrals to the horizon.
    """
    couple_tol = _resolve_tol(couple_tol, req.grid, req.field)
    x, f, grid = req.eval_point, req.terminal, req.grid

    def worker(lo, hi):
        if req.field.c_sup == 0.0:
            tau, rows, X, Z = _unmet_pairs(req.field, x, z, grid, rng, lo, hi,
                                           couple_tol, grid.steps)
            diff = np.zeros(hi - lo)
            if rows.size:
                diff[rows] = f(X) - f(Z)
        else:
            tau, X, wx, Z, wz = simulate_coupled_block(
                req.field, x, z, grid, rng, lo, hi, couple_tol, want_terminal=True)
            diff = f(X) * np.exp(wx) - f(Z) * np.exp(wz)
        capped = np.where(tau >= 0, np.minimum(tau * grid.dt, req.horizon),
                          req.horizon)
        return diff, capped

    diffs, taus = run_path_blocks(req.n_paths, worker, path_offset=path_offset)
    mean, se = mean_stderr(diffs)
    if with_taus:
        return mean, se, taus
    return mean, se


@dataclass(frozen=True)
class ModulusExperimentConfig:
    """Coupled-difference modulus measurement along a distance ladder."""

    field: CoefficientField
    terminal: Callable
    base_point: np.ndarray
    direction: np.ndarray
    distances: tuple
    grid: TimeGrid
    n_paths: int
    couple_tol: float | None = None

    def __post_init__(self):
        dist = np.asarray(self.distances, dtype=float)
        if not np.isfinite(dist).all() or np.any(dist <= 0) or np.any(np.diff(dist) >= 0):
            raise ValidationError("distances must be finite, positive and strictly decreasing")
        d = self.field.dim
        if not np.isfinite(as_point(self.base_point, d, "base_point")).all():
            raise ValidationError("base_point must be finite")
        e = as_point(self.direction, d, "direction")
        with np.errstate(over="ignore"):
            if not 0.0 < np.linalg.norm(e) < np.inf:
                raise ValidationError("direction must have a nonzero, finite length")


@dataclass
class ResultTable:
    """A small column-oriented table with run metadata; CSV floats are
    written with shortest round-trip formatting so reruns are comparable
    byte for byte."""

    columns: list
    rows: list
    metadata: dict = dc_field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_cell(v) for v in row) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    def column(self, name) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def expected_regime(field: CoefficientField) -> str:
    """Expected continuity regime implied by the declared modulus of a."""
    label, _ = classify_dini(field.modulus)
    return "lipschitz" if label == "Dini" else "holder"


def modulus_experiment(cfg: ModulusExperimentConfig, rng: RngStream) -> ResultTable:
    """Measure |u(T, x) - u(T, x + r e)| over the distance ladder with the
    coupled-pair estimator and fit the scaling exponent."""
    x = np.atleast_1d(np.asarray(cfg.base_point, dtype=float))
    e = np.atleast_1d(np.asarray(cfg.direction, dtype=float))
    e = e / np.linalg.norm(e)
    tol = _resolve_tol(cfg.couple_tol, cfg.grid, cfg.field)
    rows = []
    for i, r in enumerate(cfg.distances):
        req = SolveRequest(field=cfg.field, terminal=cfg.terminal, eval_point=x,
                           n_paths=cfg.n_paths, grid=cfg.grid)
        # disjoint path blocks per distance keep the rows independent
        offset = i * cfg.n_paths
        mean, se, taus = solve_difference_coupled(
            req, x + r * e, rng, couple_tol=tol, path_offset=offset,
            with_taus=True)
        tau_mean, tau_se = mean_stderr(taus)
        rows.append((float(r), abs(mean), se, tau_mean, tau_se,
                     cfg.n_paths, cfg.grid.dt, tol))
    table = ResultTable(
        columns=["distance", "delta_u", "stderr_u", "tau_mean", "stderr_tau",
                 "n_paths", "dt", "couple_tol"],
        rows=rows,
    )
    fits = fit_result_table(table)
    fits["regime_expected"] = expected_regime(cfg.field)
    table.metadata.update(fits)
    return table


# value column of a ladder table -> (fit key prefix, log-corrected fit too)
_LADDER_FITS = {
    "delta_u": ("delta_u", True),            # modulus tables
    "tau_mean": ("tau", True),               # modulus tables
    "mean_tau_capped": ("tau", False),       # couple tables
}


def fit_result_table(table: ResultTable) -> dict:
    """Scaling fits of the value columns of a couple or modulus table
    against its distance column: power law, and for modulus tables also
    the log-corrected law when every distance is below 1.  Rows with a
    non-positive value are dropped; a column needs 3 rows left."""
    r = table.column("distance").astype(float)
    out: dict = {}
    for col, (key, log_fit) in _LADDER_FITS.items():
        if col not in table.columns:
            continue
        v = table.column(col).astype(float)
        ok = v > 0
        if ok.sum() >= 3:
            pairs = list(zip(r[ok], v[ok]))
            out[f"{key}_power_fit"] = fit_power_law(pairs).as_dict()
            if log_fit and np.all(r[ok] < 1.0):
                out[f"{key}_log_corrected_fit"] = fit_log_corrected(pairs).as_dict()
    return out
