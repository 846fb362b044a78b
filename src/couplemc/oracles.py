"""Closed-form references used as test oracles.

Includes the explicit fundamental solution for the 1D equation with drift
-theta*sgn(x) and its product in R^d, constant-coefficient Gaussian
kernels, Brownian running-maximum laws, and the exact survival curve and
mean capped coupling time of the 1D reflection-coupled Brownian pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, ndtr

from .errors import ValidationError
from .sde_engine import as_point


def sgn_drift_density(theta: float, t: float, x: float, y) -> np.ndarray | float:
    """Fundamental solution p(0, x; t, y) of
    du/dt = (1/2) u'' - theta*sgn(x) u'.

    Four-case closed form; the Gaussian tail integrals are evaluated via
    erfc.  Vectorized over y.
    """
    if not 0.0 < t < np.inf:
        raise ValidationError("t must be positive and finite")
    if not 0.0 <= theta < np.inf:
        raise ValidationError("theta must be nonnegative and finite")
    if not np.isfinite(x):
        raise ValidationError("x must be finite")
    y = np.asarray(y, dtype=float)
    sq = np.sqrt(2.0 * t)
    gauss_norm = 1.0 / np.sqrt(2.0 * np.pi * t)

    # tail(A) = (1/sqrt(2 pi t)) * Integral_A^inf exp(-(xi - theta t)^2 / 2t) dxi
    def tail(A):
        return 0.5 * erfc((A - theta * t) / sq)

    if x >= 0.0:
        pos = gauss_norm * np.exp(-((x - y - theta * t) ** 2) / (2.0 * t)) \
            + theta * np.exp(-2.0 * theta * y) * tail(x + y)
        neg = gauss_norm * np.exp(2.0 * theta * x - ((x - y + theta * t) ** 2) / (2.0 * t)) \
            + theta * np.exp(2.0 * theta * y) * tail(x - y)
    else:
        pos = gauss_norm * np.exp(-2.0 * theta * x - ((x - y - theta * t) ** 2) / (2.0 * t)) \
            + theta * np.exp(-2.0 * theta * y) * tail(-x + y)
        neg = gauss_norm * np.exp(-((x - y + theta * t) ** 2) / (2.0 * t)) \
            + theta * np.exp(2.0 * theta * y) * tail(-x - y)
    out = np.where(y >= 0.0, pos, neg)
    return out if out.ndim else float(out)


def sgn_drift_solution(theta: float, t: float, x: float, f, lo=-12.0, hi=12.0) -> float:
    """u(t, x) = Integral f(y) p(0, x; t, y) dy by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda y: float(f(y)) * sgn_drift_density(theta, t, x, y),
        lo, hi, points=[0.0, x], limit=400, epsabs=1e-12, epsrel=1e-10,
    )
    return val


def sgn_drift_product_solution(theta: float, t: float, x, center=0.0,
                               width: float = 1.0) -> float:
    """u(t, x) in R^d for a = I, b_i = -theta*sgn(x_i) and the Gaussian bump
    exp(-|y - center|^2 / (2 width^2)) (``registry.make_gaussian_bump``):
    the coordinates are independent 1D sgn-drift diffusions and the bump a
    product, so u is the product over i of ``sgn_drift_solution`` at x_i."""
    if not 0.0 < width < np.inf:
        raise ValidationError("width must be finite and positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    center = as_point(np.full(len(x), center) if np.ndim(center) == 0 else center,
                      len(x), "center")
    return float(np.prod([sgn_drift_solution(theta, t, xi, lambda y, c=c: np.exp(
        -(y - c) ** 2 / (2.0 * width**2))) for xi, c in zip(x, center)]))


def heat_kernel(a0, b0, t: float, x, y) -> float:
    """Density at y of N(x + t*b0, t*a0): the constant-coefficient kernel.
    a0 must be a symmetric square matrix, x, y and b0 must have its
    dimension, and every entry must be finite."""
    if not 0.0 < t < np.inf:
        raise ValidationError("t must be positive and finite")
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    d = a0.shape[0]
    x, y = as_point(x, d, "x"), as_point(y, d, "y")
    b0 = np.zeros(d) if b0 is None else as_point(b0, d, "b0")
    if not np.isfinite(a0).all():
        raise ValidationError("a0 must be finite")
    if a0.shape != (d, d) or (a0 != a0.T).any():
        raise ValidationError(f"a0 must be a symmetric square matrix, got shape {a0.shape}")
    cov = t * a0
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValidationError("covariance must be positive definite")
    diff = y - x - t * b0
    quad_form = diff @ np.linalg.solve(cov, diff)
    return float(np.exp(-0.5 * quad_form - 0.5 * logdet - 0.5 * d * np.log(2.0 * np.pi)))


@dataclass(frozen=True)
class RunningMaxQuery:
    t: float
    x: float
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.t < np.inf:
            raise ValidationError("t must be positive and finite")
        if not 0.0 <= self.x < np.inf:
            raise ValidationError("x must be nonnegative and finite")
        if not 0.0 < self.c1 <= self.c2 < np.inf:
            raise ValidationError("need 0 < c1 <= c2 < inf")


@dataclass(frozen=True)
class RunningMaxBounds:
    upper_tail: float      # bound on P(sup <= t of M >= x), rate c2
    lower_level: float     # bound on P(sup <= t of M <= x), rate c1
    exact: float           # reflection-principle value 2(1 - Phi(x/sqrt(t)))


def running_max_bounds(q: RunningMaxQuery) -> RunningMaxBounds:
    """Tail bounds for the running max of a martingale with quadratic
    variation between c1*t and c2*t, plus the exact Brownian value."""
    t, x, c1, c2 = q.t, q.x, q.c1, q.c2
    if x == 0.0:
        upper = np.inf  # the published bound degenerates at x = 0
    else:
        upper = np.sqrt(2.0 * c2 * t / (np.pi * x * x)) * np.exp(-x * x / (2.0 * c2 * t))
    lower_level = np.sqrt(2.0 / (c1 * np.pi * t)) * x
    exact = 2.0 * (1.0 - ndtr(x / np.sqrt(t)))
    return RunningMaxBounds(upper_tail=float(upper),
                            lower_level=float(lower_level),
                            exact=float(exact))


def bm_coupling_survival(d0: float, t):
    """Exact P(tau > t) for the 1D reflection-coupled Brownian pair started
    a distance d0 apart: 2*Phi(d0 / (2 sqrt(t))) - 1, vectorized over t.

    The separation is a martingale with quadratic variation 4s, so tau is
    the first time a Brownian motion of variance 4s travels d0.
    """
    if not (d0 > 0.0 and np.all(np.asarray(t) > 0.0)):
        raise ValidationError("need d0 > 0 and t > 0")
    # 2*Phi(u) - 1 = erf(u / sqrt(2))
    return erf(d0 / (2.0 * np.sqrt(t)) / np.sqrt(2.0))


def bm_coupling_expectation(d0: float, t: float) -> float:
    """Exact E[t ^ tau] for the 1D reflection-coupled Brownian pair started
    a distance d0 apart: the integral of ``bm_coupling_survival`` over
    [0, t].
    """
    from scipy.integrate import quad

    if not (d0 > 0.0 and 0.0 < t < np.inf):
        raise ValidationError("need d0 > 0 and finite t > 0")
    val, _ = quad(lambda s: bm_coupling_survival(d0, s), 0.0, t,
                  epsrel=1e-10, epsabs=0.0, limit=200)
    return val
