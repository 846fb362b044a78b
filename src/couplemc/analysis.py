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

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_stderr": self.slope_stderr,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
        }


def _ols(x: np.ndarray, y: np.ndarray, weights=None) -> ScalingFit:
    n = len(x)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
    wsum = w.sum()
    xbar = (w * x).sum() / wsum
    ybar = (w * y).sum() / wsum
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx == 0.0:
        raise ValidationError("degenerate abscissae: all x equal")
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    dof = n - 2
    s2 = (w * resid**2).sum() / dof if dof > 0 else 0.0
    syy = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 - (w * resid**2).sum() / syy if syy > 0 else 1.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_stderr=float(np.sqrt(s2 / sxx)),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        n_points=n,
    )


def _prepare(pairs, weights):
    arr = np.asarray([(float(r), float(v)) for r, v in pairs], dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 3:
        raise ValidationError("need at least 3 (r, v) pairs")
    if np.any(arr <= 0.0):
        raise ValidationError("all pairs must be strictly positive")
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None and w.shape != (arr.shape[0],):
        raise ValidationError("weights must match the number of pairs")
    # sort by abscissa, then value and weight, so the result is
    # independent of input order
    keys = (arr[:, 1], arr[:, 0]) if w is None else (w, arr[:, 1], arr[:, 0])
    order = np.lexsort(keys)
    arr = arr[order]
    if w is not None:
        w = w[order]
    return arr[:, 0], arr[:, 1], w


def fit_power_law(pairs, weights=None) -> ScalingFit:
    """Least squares of log v on log r.  Pairs are sorted before fitting so
    the result is independent of input order."""
    r, v, w = _prepare(pairs, weights)
    return _ols(np.log(r), np.log(v), w)


def fit_log_corrected(pairs, weights=None) -> ScalingFit:
    """Least squares of log v on log(r * max(1, -log r)); a slope near 1
    flags the r*log(1/r) modulus rather than a plain power law."""
    r, v, w = _prepare(pairs, weights)
    if np.any(r >= 1.0):
        raise ValidationError("log-corrected fit needs all r < 1")
    regressor = np.log(r * np.maximum(1.0, -np.log(r)))
    return _ols(regressor, np.log(v), w)
