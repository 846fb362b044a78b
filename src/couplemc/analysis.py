"""Log-log regression on result tables: power-law and log-corrected
exponent fits with standard errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float
    n_points: int


def _ols(x: np.ndarray, y: np.ndarray) -> ScalingFit:
    n = len(x)
    xbar = x.sum() / n
    ybar = y.sum() / n
    sxx = ((x - xbar) ** 2).sum()
    if sxx == 0.0:
        raise ValidationError("degenerate abscissae: all x equal")
    slope = ((x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    dof = n - 2
    s2 = (resid**2).sum() / dof if dof > 0 else 0.0
    syy = ((y - ybar) ** 2).sum()
    r2 = 1.0 - (resid**2).sum() / syy if syy > 0 else 1.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_stderr=float(np.sqrt(s2 / sxx)),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        n_points=n,
    )


def _prepare(pairs):
    arr = np.asarray([(float(r), float(v)) for r, v in pairs], dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 3:
        raise ValidationError("need at least 3 (r, v) pairs")
    if not (np.isfinite(arr).all() and (arr > 0.0).all()):
        raise ValidationError("all pairs must be finite and strictly positive")
    # sort by abscissa, then value, so the result is independent of input
    # order
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    return arr[:, 0], arr[:, 1]


def fit_power_law(pairs) -> ScalingFit:
    """Least squares of log v on log r.  Pairs are sorted before fitting so
    the result is independent of input order."""
    r, v = _prepare(pairs)
    return _ols(np.log(r), np.log(v))


def fit_log_corrected(pairs) -> ScalingFit:
    """Least squares of log v on log(r * max(1, -log r)); a slope near 1
    flags the r*log(1/r) modulus rather than a plain power law."""
    r, v = _prepare(pairs)
    if np.any(r >= 1.0):
        raise ValidationError("log-corrected fit needs all r < 1")
    regressor = np.log(r * np.maximum(1.0, -np.log(r)))
    return _ols(regressor, np.log(v))
