"""Feynman-Kac Monte Carlo estimates of u(T, x), the per-pair samples of
coupled differences u(T, x) - u(T, z) over a ladder of start points z, the
placement of a ladder, and the result table and scaling fits that the
runs of ``cli`` write."""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .analysis import fit_log_corrected, fit_power_law
from .coefficients import CoefficientField, classify_dini
from .coupling import (_resolve_tol, capped_times, ladder_starts,
                       simulate_coupled_block, simulate_coupled_terminal)
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


def solve_u(req: SolveRequest, rng: RngStream,
            path_offset: int = 0) -> tuple[float, float]:
    """Estimate u(T, x) = E[f(X_T) exp(int c)] with its standard error,
    simulating the paths in tiles of ``sde_engine.path_tile`` paths."""

    def worker(lo, hi):
        X, w = simulate_terminal(req.field, req.eval_point, req.grid, rng, lo, hi)
        return req.terminal(X) * np.exp(w)

    vals = run_path_blocks(req.n_paths, worker, path_offset=path_offset,
                           block_size=path_tile(req.field, req.grid))
    return mean_stderr(vals)


def difference_ladder(req: SolveRequest, zs, rng: RngStream,
                      couple_tol: float | None = None, path_offset: int = 0) -> tuple:
    """The per-pair samples (diffs, taus) of u(T, x) - u(T, z) over
    reflection-coupled pairs, for each start point z of zs: the paired
    differences and the coupling times capped at the horizon, in the rungs
    of ``coupling.coupling_time_ladder``, run in one batch with the bytes
    of one-rung ladders; ``sde_engine.rung_means`` reduces them.  The
    differences vanish on paths that couple before the horizon (up to the
    pre-coupling c-integral discrepancy), so their variance shrinks with |x - z|.

    For a field that declares c = 0 (``c_sup == 0``) a pair that meets
    adds exactly 0.0, so the block driver ``simulate_coupled_block`` steps
    only the unmet pairs, whose f(X_T) - f(Z_T) has the bytes of the
    terminal driver's f(X_T) exp(0) - f(Z_T) exp(0).  A blow-up after a
    meeting is then not reported; bounded coefficients and the clamped
    uniforms cannot produce one.  Other fields take
    ``simulate_coupled_terminal`` in blocks of paths (``run_path_blocks``)
    that may split a rung.
    """
    field, x, f, grid = req.field, req.eval_point, req.terminal, req.grid
    couple_tol = _resolve_tol(couple_tol, grid, field)
    starts = ladder_starts(field.dim, zs, req.n_paths)
    if field.c_sup == 0.0:
        tau, rows, X, Z = simulate_coupled_block(field, x, starts, grid, rng, path_offset,
                                                 path_offset + len(starts), couple_tol)
        diffs = np.zeros(len(starts))
        if rows.size:
            diffs[rows] = f(X) - f(Z)
    else:
        def worker(lo, hi):
            tau, X, wx, Z, wz = simulate_coupled_terminal(
                field, x, starts[lo - path_offset:hi - path_offset], grid, rng,
                lo, hi, couple_tol)
            return f(X) * np.exp(wx) - f(Z) * np.exp(wz), tau

        diffs, tau = run_path_blocks(len(starts), worker, path_offset=path_offset)
    return diffs, capped_times(tau, grid.dt, grid.horizon)


def placement(base_point, direction, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, e / |e|) for a ladder from base_point x along direction e in R^d.
    A point or direction of another length, a non-finite point, or a
    direction that is zero or not finite is a ValidationError."""
    x = as_point(base_point, d, "base_point")
    if not np.isfinite(x).all():
        raise ValidationError("base_point must be finite")
    e = as_point(direction, d, "direction")
    top = np.max(np.abs(e))
    if not 0.0 < top < np.inf:
        raise ValidationError("direction must be nonzero and finite")
    # scaling by a power of two is exact and keeps |e| off overflow and underflow
    e = np.ldexp(e, -np.frexp(top)[1])
    return x, e / np.linalg.norm(e)


@dataclass
class ResultTable:
    """A small column-oriented table; CSV floats are written with shortest
    round-trip formatting so reruns are comparable byte for byte."""

    columns: list
    rows: list

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
            out[f"{key}_power_fit"] = asdict(fit_power_law(pairs))
            if log_fit and np.all(r[ok] < 1.0):
                out[f"{key}_log_corrected_fit"] = asdict(fit_log_corrected(pairs))
    return out
