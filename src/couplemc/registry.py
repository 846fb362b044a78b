"""Built-in coefficient fields and terminal functions, selectable by name
from experiment configs."""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import (CoefficientField, ModulusOfContinuity, ZERO_MODULUS,
                           sqrt_spd)
from .errors import ConfigError, ValidationError


def _floats(v, name: str) -> np.ndarray:
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number or a list of numbers, "
                              f"got {v!r}") from None


def _as_matrix(a0, dim: int) -> np.ndarray:
    A = _floats(a0, "a0")
    if A.ndim == 0:
        return float(A) * np.eye(dim)
    if A.shape == (dim,):
        return np.diag(A)
    if A.shape == (dim, dim):
        return A
    raise ValidationError(f"a0 must be a scalar, {dim} entries or a {dim}x{dim} "
                          f"matrix for dim = {dim}; got shape {A.shape}")


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    """A scalar repeated dim times, or exactly dim entries."""
    v = _floats(v, name)
    if v.ndim == 0:
        return np.full(dim, float(v))
    if v.shape != (dim,):
        raise ValidationError(f"{name} must be a scalar or {dim} entries for dim = {dim}; "
                              f"got shape {v.shape}")
    return v


def is_finite_real(v) -> bool:
    """The rule for every number a config supplies: real, not bool, finite."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _dim(dim) -> int:
    """dim as an int >= 1: an integer or an integral float, not a bool."""
    if isinstance(dim, bool) or not (isinstance(dim, numbers.Integral)
                                     or isinstance(dim, float) and dim.is_integer()):
        raise ValidationError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return int(dim)


def make_constant_field(dim: int = 1, a0=1.0, b0=0.0, c0: float = 0.0) -> CoefficientField:
    """Constant coefficients: a0 (scalar, diagonal, or full matrix), drift
    b0 and potential c0."""
    dim = _dim(dim)
    A = _as_matrix(a0, dim)
    bvec = _as_vector(b0, dim, "b0")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if w.min() <= 0:
        raise ValidationError("a0 must be positive definite")
    lam = float(max(w.max(), 1.0 / w.min()))
    sig = sqrt_spd(A)
    # declared only when s * I reproduces sig bit for bit
    s = float(sig[0, 0])
    scalar = s if sig.tobytes() == (s * np.eye(dim)).tobytes() else None

    def a(t, x):
        return np.broadcast_to(A, (len(x), dim, dim))

    def sigma(t, x):
        return np.broadcast_to(sig, (len(x), dim, dim))

    def b(t, x):
        return np.broadcast_to(bvec, (len(x), dim))

    def c(t, x):
        return np.full(len(x), float(c0))

    return CoefficientField(dim=dim, a=a, b=b, c=c, lam=lam,
                            b_sup=math.hypot(*bvec), c_sup=abs(float(c0)),
                            modulus=ZERO_MODULUS, sigma=sigma, sigma_scalar=scalar)


def _scale_field(dim: int, s: Callable, modulus: ModulusOfContinuity, lam: float,
                 c0: float = 0.0) -> CoefficientField:
    """The field sigma = s(x) I: a = s(x)^2 I, sigma given as the scale
    s(x) (n,), b = 0 and c = c0."""
    eye = np.eye(dim)

    def a(t, x):
        return s(x)[:, None, None] ** 2 * eye

    def sigma(t, x):
        return s(x)

    def b(t, x):
        return np.zeros((len(x), dim))

    def c(t, x):
        return np.full(len(x), float(c0))

    return CoefficientField(dim=dim, a=a, b=b, c=c, lam=lam, b_sup=0.0,
                            c_sup=abs(float(c0)), modulus=modulus, sigma=sigma)


def make_sin_field(dim: int = 1, amp: float = 0.5, c0: float = 0.0) -> CoefficientField:
    """Smooth 1D-structured field a(x) = (1 + amp*sin(x_1))^2 * I."""
    if not 0.0 <= amp < 1.0:
        raise ValidationError("amp must lie in [0, 1)")

    def s(x):
        return 1.0 + amp * np.sin(x[:, 0])

    # |d a/dx| <= 2 amp (1 + amp): Lipschitz modulus
    modulus = ModulusOfContinuity("power", scale=2.0 * amp * (1.0 + amp), alpha=1.0)
    lam = float(max((1.0 + amp) ** 2, (1.0 - amp) ** -2))
    return _scale_field(_dim(dim), s, modulus, lam, c0)


def make_power_modulus_field(dim: int = 1, height: float = 0.5,
                             alpha: float = 0.5) -> CoefficientField:
    """Holder-alpha field a(x) = (1 + height * min(|x_1|, 1)^alpha) * I."""
    if not (height > 0 and 0.0 < alpha <= 1.0):
        raise ValidationError("need height > 0 and alpha in (0, 1]")

    def s(x):
        return np.sqrt(1.0 + height * np.minimum(np.abs(x[:, 0]), 1.0) ** alpha)

    modulus = ModulusOfContinuity("power", scale=height, alpha=alpha)
    return _scale_field(_dim(dim), s, modulus, 1.0 + height)


def make_log_modulus_field(dim: int = 1, height: float = 0.5,
                           alpha: float = 2.0) -> CoefficientField:
    """Field with the logarithmic modulus min(1, (-log r)^(-alpha)); Dini
    for alpha > 1, merely continuous for alpha <= 1."""
    if not (height > 0 and alpha > 0):
        raise ValidationError("need height > 0 and alpha > 0")
    modulus = ModulusOfContinuity("log_power", scale=height, alpha=alpha)

    def s(x):
        return np.sqrt(1.0 + modulus(np.abs(x[:, 0])))

    return _scale_field(_dim(dim), s, modulus, 1.0 + height)


def make_sgn_drift_field(theta: float = 1.0) -> CoefficientField:
    """1D unit diffusion with discontinuous drift -theta*sgn(x); the
    closed-form density oracle exists for this field."""
    if not 0 <= theta < np.inf:
        raise ValidationError("theta must be finite and nonnegative")

    def b(t, x):
        return -theta * np.sign(x)

    unit = _scale_field(1, lambda x: np.ones(len(x)), ZERO_MODULUS, 1.0)
    return replace(unit, b=b, b_sup=theta, sigma_scalar=1.0)


FIELD_BUILDERS: dict[str, Callable[..., CoefficientField]] = {
    "constant": make_constant_field,
    "sin": make_sin_field,
    "power-modulus": make_power_modulus_field,
    "log-modulus": make_log_modulus_field,
    "sgn-drift": make_sgn_drift_field,
}


@dataclass(frozen=True)
class TerminalFunction:
    """Terminal datum f, batched over points."""

    fn: Callable  # (n, d) -> (n,)

    def __call__(self, y):
        return self.fn(np.atleast_2d(np.asarray(y, dtype=float)))


def make_gaussian_bump(center=0.0, width: float = 1.0) -> TerminalFunction:
    if not 0 < width < np.inf:
        raise ValidationError("width must be finite and positive")

    def fn(y):
        ctr = _as_vector(center, y.shape[1], "terminal center")
        return np.exp(-np.sum((y - ctr) ** 2, axis=1) / (2.0 * width**2))

    return TerminalFunction(fn=fn)


def make_linear(coeffs=1.0) -> TerminalFunction:
    def fn(y):
        cv = _as_vector(coeffs, y.shape[1], "terminal coeffs")
        return y @ cv

    return TerminalFunction(fn=fn)


def make_constant_terminal(value: float = 1.0) -> TerminalFunction:
    def fn(y):
        return np.full(len(y), float(value))

    return TerminalFunction(fn=fn)


TERMINAL_BUILDERS: dict[str, Callable[..., TerminalFunction]] = {
    "gaussian-bump": make_gaussian_bump,
    "linear": make_linear,
    "constant": make_constant_terminal,
}


def _check_numbers(section: str, name: str, builder: Callable, params: dict) -> None:
    """A key the builder does not take, or a value with an entry that is not
    ``is_finite_real``, is a config error naming the config key."""
    for key, v in params.items():
        if key not in inspect.signature(builder).parameters:
            raise ConfigError(f"{section} {name!r} takes no {key!r} (config key {section}.{key})")
        if not all(map(is_finite_real, np.asarray(v, dtype=object).ravel())):
            raise ConfigError(f"bad parameters for {section} {name!r}: {section} {key} "
                              f"must be a finite number or a list of them, got {v!r} "
                              f"(config key {section}.{key})")


def _build(section: str, builders: dict, name: str, params: dict | None):
    if name not in builders:
        raise ConfigError(f"unknown {section} {name!r}; known: {sorted(builders)}")
    _check_numbers(section, name, builders[name], params or {})
    try:
        return builders[name](**(params or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for {section} {name!r}: {exc}") from exc


def build_field(name: str, params: dict | None = None) -> CoefficientField:
    return _build("field", FIELD_BUILDERS, name, params)


def build_terminal(name: str, params: dict | None = None) -> TerminalFunction:
    return _build("terminal", TERMINAL_BUILDERS, name, params)
