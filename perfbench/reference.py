"""Independent reference values for the benchmark's correctness checks.
They are computed in the benchmark's own process, never inside a timed
region, and none of them runs the Monte Carlo code they check."""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def gaussian_bump_constant_field(dim: int, horizon: float) -> float:
    """u(T, 0) = E[exp(-|B_T|^2 / 2)] for a standard d-dimensional Brownian
    motion, i.e. the unit-width gaussian bump under a = I: (1 + T)^(-d/2)."""
    return (1.0 + horizon) ** (-dim / 2.0)


def sin_field_solution(points, amp: float, horizon: float, width: float = 1.0,
                       half_width: float = 10.0, h: float = 0.005,
                       steps: int = 2000) -> np.ndarray:
    """u(T, x) at the given points for du/dt = (1/2) a(x) u'' with
    a(x) = (1 + amp sin x)^2 and u(0, x) = exp(-x^2 / (2 width^2)).

    Crank-Nicolson on [-half_width, half_width] with zero boundary values
    (the datum and solution are below 1e-10 there).  The points must lie
    on the grid of spacing h.
    """
    n = int(round(2.0 * half_width / h)) + 1
    x = np.linspace(-half_width, half_width, n)
    u = np.exp(-x**2 / (2.0 * width**2))
    dt = horizon / steps
    r = 0.25 * dt * (1.0 + amp * np.sin(x[1:-1])) ** 2 / h**2  # (dt/2) * a/(2h^2)
    # (I - (dt/2) L) on interior nodes, banded storage
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = -r[:-1]
    ab[1] = 1.0 + 2.0 * r
    ab[2, :-1] = -r[1:]
    for _ in range(steps):
        inner = u[1:-1]
        rhs = inner + r * (u[2:] - 2.0 * inner + u[:-2])
        u[1:-1] = solve_banded((1, 1), ab, rhs)
    idx = np.rint((np.asarray(points, dtype=float) + half_width) / h).astype(int)
    if not np.allclose(x[idx], points, atol=1e-9):
        raise ValueError("reference points must lie on the grid")
    return u[idx]
