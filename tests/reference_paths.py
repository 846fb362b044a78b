"""Step-by-step references for the batch drivers.

Each function steps one path, or one coupled pair, node by node through
the engine's own step (``euler_step``, ``pair_step``) on the whole
horizon's draws, read in one ``RngStream.uniforms`` call, and records
every node.  A batch driver must give their bytes for every path of its
block, however it chunks, tiles or scans the steps; only the terminal
pair driver's Z integral after a meeting differs, by rounding.
"""

import numpy as np

from couplemc.coupling import _pair_layout, _start_pairs, default_couple_tol, pair_step
from couplemc.sde_engine import euler_step, path_range, to_increments


@np.errstate(over="ignore", invalid="ignore")
def path(field, x0, grid, rng, p=0):
    """(states, weight_log) of path p of rng started at x0: the nodes
    (steps + 1, d) and the left-endpoint sums of c(T - t, X) dt
    (steps + 1,)."""
    d, dt, T = field.dim, grid.dt, grid.horizon
    dW = to_increments(rng.uniforms(path_range(p, p + 1), 0, grid.steps, d)[0], dt)
    X = np.array([x0], dtype=float)
    states = np.empty((grid.steps + 1, d))
    weight = np.zeros(grid.steps + 1)
    states[0] = X[0]
    for k in range(grid.steps):
        weight[k + 1] = weight[k] + field.c(T - k * dt, X)[0] * dt
        X = euler_step(field, grid, k, X, dW[k][None, :])
        states[k + 1] = X[0]
    return states, weight


@np.errstate(over="ignore", invalid="ignore")
def pair(field, x, z, grid, rng, couple_tol=None, p=0):
    """(states_x, states_z, wx, wz, tau) of pair p of rng started at x and
    z: the nodes and c-integrals of both legs, as ``path`` records them,
    and the coupling step (-1 if the pair has not met by the horizon).
    couple_tol None is the default tolerance.  After the meeting the Z leg
    is the X leg, stepped by ``euler_step``."""
    if couple_tol is None:
        couple_tol = default_couple_tol(grid, field)
    d, dt, T = field.dim, grid.dt, grid.horizon
    per_pair, bridge = _pair_layout(d)
    paths, tau_step, X, Z = _start_pairs(field, x, z, p, p + 1, couple_tol)
    u = rng.uniforms(paths, 0, grid.steps, per_pair)
    dW = to_increments(u[:, :, :d], dt)
    states_x = np.empty((grid.steps + 1, d))
    states_z = np.empty((grid.steps + 1, d))
    wx = np.zeros(grid.steps + 1)
    wz = np.zeros(grid.steps + 1)
    states_x[0], states_z[0] = X[0], Z[0]
    tau = int(tau_step[0])
    for k in range(grid.steps):
        wx[k + 1] = wx[k] + field.c(T - k * dt, X)[0] * dt
        wz[k + 1] = wz[k] + field.c(T - k * dt, Z)[0] * dt
        if tau < 0:
            X, Z, hit = pair_step(field, grid, k, X, Z, dW[:, k], u[:, k, bridge],
                                  couple_tol)
            tau = k + 1 if hit[0] else -1
        else:
            X = euler_step(field, grid, k, X, dW[:, k])
        if tau >= 0:
            Z = X
        states_x[k + 1], states_z[k + 1] = X[0], Z[0]
    return states_x, states_z, wx, wz, tau
