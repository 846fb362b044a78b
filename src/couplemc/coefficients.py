"""PDE coefficient data: the triple (a, b, c), moduli of continuity, and
the symmetric square root used as the diffusion coefficient.

Coefficient callables are batched: ``a(t, x)`` takes a scalar time and an
array of points with shape (n, d) and returns (n, d, d); ``b`` returns
(n, d) and ``c`` returns (n,).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DiniDivergenceError, EllipticityError, ValidationError

_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class ModulusOfContinuity:
    """A parametric modulus rho(r): nondecreasing, rho(0) = 0.

    kind is one of:
      * ``zero``      -- identically zero (constant coefficients)
      * ``power``     -- scale * r**alpha, alpha in (0, 1]
      * ``log_power`` -- scale * min(1, (-log r)**(-alpha)), alpha > 0

    Each kind has a closed-form Dini answer (see ``classify_dini``).
    """

    kind: str
    scale: float = 1.0
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "power", "log_power"):
            raise ValidationError(f"unknown modulus kind {self.kind!r}")
        if not self.scale >= 0:
            raise ValidationError("modulus scale must be >= 0")
        if self.kind == "power":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise ValidationError("power modulus needs alpha in (0, 1]")
        if self.kind == "log_power":
            if self.alpha is None or not self.alpha > 0.0:
                raise ValidationError("log_power modulus needs alpha > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(r)
        elif self.kind == "power":
            out = self.scale * np.power(r, self.alpha)
        else:
            out = np.empty_like(r)
            inside = (r > 0.0) & (r < 1.0)
            with np.errstate(divide="ignore"):
                out[inside] = self.scale * np.minimum(
                    1.0, (-np.log(r[inside])) ** (-self.alpha)
                )
            out[r <= 0.0] = 0.0
            out[r >= 1.0] = self.scale
        return out if out.ndim else float(out)


ZERO_MODULUS = ModulusOfContinuity("zero", scale=0.0)


def classify_dini(rho: ModulusOfContinuity) -> tuple[str, float]:
    """Classify a modulus as Dini (rho(r)/r integrable at 0) or not, in
    closed form: power moduli always integrate (value scale/alpha), the
    logarithmic family integrates exactly when alpha > 1 (value
    scale*alpha/(alpha-1)).  Returns the label and the integral of
    rho(r)/r over (0, 1] (inf when it diverges).
    """
    if rho.kind == "zero" or rho.scale == 0.0:
        return "Dini", 0.0
    if rho.kind == "power":
        return "Dini", rho.scale / rho.alpha
    if rho.alpha > 1.0:
        # scale * (1 + Integral_0^1/e (-log r)^-alpha dr/r)
        return "Dini", rho.scale * rho.alpha / (rho.alpha - 1.0)
    return "not Dini", np.inf


def sqrt_spd(A: np.ndarray) -> np.ndarray:
    """Principal symmetric square root of a symmetric positive-definite
    matrix (batched over leading axes)."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValidationError("expected square matrices")
    asym = np.abs(A - np.swapaxes(A, -1, -2)).max()
    scale = np.abs(A).max()
    if asym > _SYM_RTOL * max(scale, 1.0):
        raise ValidationError(f"matrix not symmetric (asymmetry {asym:.3e})")
    w, V = np.linalg.eigh(0.5 * (A + np.swapaxes(A, -1, -2)))
    if np.any(w <= 0.0):
        raise EllipticityError(f"nonpositive eigenvalue {w.min():.6e}")
    root = (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def require_dini(rho: ModulusOfContinuity) -> None:
    """Raise DiniDivergenceError unless ``classify_dini`` labels rho Dini."""
    label, _ = classify_dini(rho)
    if label != "Dini":
        raise DiniDivergenceError("modulus fails the Dini integrability check")


@dataclass(frozen=True)
class CoefficientField:
    """The PDE data (a, b, c) with its ellipticity constant and declared
    bounds; the problem definition for all simulations.

    sigma, when set, returns sigma(t, x) instead of the square root of a:
    matrices (n, d, d), or the scale s (n,) to declare sigma = s I, which
    the step kernels apply with no matrix product and no linear solve.

    sigma_scalar, when set, declares sigma(t, x) = sigma_scalar * I for
    every t and x, and must agree bit for bit with ``sigma`` (or with the
    square root of ``a``).  The step kernel then multiplies the increments
    by the scalar instead of evaluating sigma; with b = 0 the 1D block
    driver scans whole blocks of steps (see ``coupling``), and with b = 0
    and c = 0 ``simulate_terminal`` does so in any dimension.

    b_sup == 0 declares b = 0 and c_sup == 0 declares c = 0: the step
    kernel and the block drivers trust these declarations and skip
    evaluating b or c.
    """

    dim: int
    a: Callable  # (t, x[n,d]) -> (n, d, d)
    b: Callable  # (t, x[n,d]) -> (n, d)
    c: Callable  # (t, x[n,d]) -> (n,)
    lam: float   # ellipticity constant: eigenvalues of a in [1/lam, lam], lam >= 1
    b_sup: float
    c_sup: float
    modulus: ModulusOfContinuity = field(default=ZERO_MODULUS)
    # (t, x[n,d]) -> (n, d, d), or (n,) for sigma = s I; when absent the
    # principal square root of a(t, x) is taken pointwise
    sigma: Callable | None = None
    sigma_scalar: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be a positive integer")
        if not 1.0 <= self.lam < np.inf:
            raise ValidationError("ellipticity constant must be finite and >= 1")
        # an unbounded drift may declare b_sup = inf; nan compares false
        if not (self.b_sup >= 0.0 and self.c_sup >= 0.0):
            raise ValidationError("declared bounds must be nonnegative, not nan")
        if self.sigma_scalar is not None and not (
                np.isfinite(self.sigma_scalar) and self.sigma_scalar > 0):
            raise ValidationError("sigma_scalar must be finite and positive")


@dataclass(frozen=True)
class ValidationReport:
    """Worst-case excursions of a coefficient field over a sample set."""

    passed: bool
    eig_min: float
    eig_max: float
    eig_lo_required: float
    eig_hi_required: float
    b_max: float
    c_max: float
    asymmetry_max: float
    n_points: int

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: eigenvalues [{self.eig_min:.6g}, {self.eig_max:.6g}] "
            f"(required [{self.eig_lo_required:.6g}, {self.eig_hi_required:.6g}]), "
            f"max|b| {self.b_max:.6g}, max|c| {self.c_max:.6g}, "
            f"asymmetry {self.asymmetry_max:.3g}, {self.n_points} sample points"
        )


_SLACK = 1e-9


def validate_field(field_: CoefficientField, points: np.ndarray,
                   times=(0.0,)) -> ValidationReport:
    """Check the standing assumptions on (a, b, c) over a sample set.

    points has shape (n, d).  Passing requires all sampled eigenvalues in
    [1/lam - slack, lam + slack] and |b|, |c| within the declared bounds.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValidationError("sampler is empty")
    eig_min, eig_max, b_max, c_max, asym_max = np.inf, -np.inf, 0.0, 0.0, 0.0
    for t in times:
        A = np.asarray(field_.a(t, points), dtype=float)
        asym = np.abs(A - np.swapaxes(A, -1, -2)).max()
        asym_max = max(asym_max, float(asym))
        w = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
        eig_min = min(eig_min, float(w.min()))
        eig_max = max(eig_max, float(w.max()))
        bv = np.asarray(field_.b(t, points), dtype=float)
        b_max = max(b_max, float(np.linalg.norm(bv, axis=-1).max()))
        cv = np.asarray(field_.c(t, points), dtype=float)
        c_max = max(c_max, float(np.abs(cv).max()))
    lo, hi = 1.0 / field_.lam, field_.lam
    scale = max(abs(eig_max), 1.0)
    passed = (
        eig_min >= lo - _SLACK
        and eig_max <= hi + _SLACK
        and b_max <= field_.b_sup + _SLACK
        and c_max <= field_.c_sup + _SLACK
        and asym_max <= _SYM_RTOL * scale
    )
    return ValidationReport(
        passed=passed,
        eig_min=eig_min,
        eig_max=eig_max,
        eig_lo_required=lo,
        eig_hi_required=hi,
        b_max=b_max,
        c_max=c_max,
        asymmetry_max=asym_max,
        n_points=len(points) * len(tuple(times)),
    )


_BOX_HALF_WIDTH = 2.0
_GRID_PER_AXIS = 101
_N_RANDOM = 1000


def default_sample_points(dim: int) -> np.ndarray:
    """Default validation sample set in the box [-2, 2]^dim: a grid of 101
    points along each axis through 0, plus 1000 Halton points."""
    axis = np.linspace(-_BOX_HALF_WIDTH, _BOX_HALF_WIDTH, _GRID_PER_AXIS)
    # full tensor grids blow up with dim; take per-axis slices through 0
    cols = []
    for j in range(dim):
        pts = np.zeros((_GRID_PER_AXIS, dim))
        pts[:, j] = axis
        cols.append(pts)
    grid = np.concatenate(cols, axis=0)
    sob = _halton(_N_RANDOM, dim)
    rand = (2.0 * sob - 1.0) * _BOX_HALF_WIDTH
    return np.concatenate([grid, rand], axis=0)


def _halton(n: int, dim: int) -> np.ndarray:
    """The first n points of the Halton sequence in dim <= 12 dimensions;
    seeded pseudo-random points beyond that."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    if dim > len(primes):
        rng = np.random.default_rng(0)
        return rng.random((n, dim))
    out = np.empty((n, dim))
    for j in range(dim):
        base = primes[j]
        seq = np.zeros(n)
        work = np.arange(1, n + 1).astype(float)
        denom = float(base)
        while np.any(work > 0):
            seq += (work % base) / denom
            work //= base
            denom *= base
        out[:, j] = seq % 1.0
    return out
