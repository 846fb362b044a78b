"""Reflection coupling of two diffusions started at nearby points.

The second process Z is driven by the Brownian increments of X reflected
across sigma(Z)^-1 (X - Z) until the pair meets, then fused with X.  Each
mechanism is described where it is implemented: the start of the pairs
in ``_start_pairs``, the pair step in ``pair_step``, the meeting test in
``_meets``, the draws of a pair in ``_pair_layout``, the 1D
constant-sigma scan in ``_scan_tile`` and the per-pair samples (not
estimates) of t ^ tau over a ladder of start points in
``coupling_time_ladder``.  Three drivers:
``simulate_coupled_block`` steps pairs only until they meet,
``simulate_coupled_terminal`` carries them to the horizon with the
c-integrals of both legs, and the recorder ``simulate_coupled`` stores
every node of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField, ModulusOfContinuity, require_dini
from .errors import SimulationDivergedError, ValidationError
from .sde_engine import (RngStream, SamplePath, TimeGrid, _check_count, as_point,
                         chunk_steps, draw_chunks, euler_step, euler_update, path_range,
                         raise_first_nonfinite, run_blocks, sigma_batch, tile_draw,
                         to_increments)


@dataclass
class CoupledPath:
    """A coupled pair of trajectories with the declared coupling time.

    tau_index is None when the pair has not coupled by the horizon, in
    which case tau_time equals the horizon.
    """

    path_x: SamplePath
    path_z: SamplePath
    tau_index: int | None
    tau_time: float


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters of the comparison function used to bound coupling times
    under a Dini modulus."""

    gamma: float
    rho: ModulusOfContinuity

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise ValidationError("gamma must be positive and finite")


def default_couple_tol(grid: TimeGrid, field: CoefficientField) -> float:
    """Increment-scale coupling tolerance: sqrt(dt) / (10 sqrt(lam))."""
    return np.sqrt(grid.dt) / np.sqrt(field.lam) / 10.0


def _reflect_increments(v: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """H dW without forming H: dW - 2 v (v . dW) / |v|^2."""
    proj = np.sum(v * dW, axis=-1) / np.sum(v * v, axis=-1)
    return dW - 2.0 * v * proj[..., None]


def pair_step(field: CoefficientField, grid: TimeGrid, k: int, X: np.ndarray,
              Z: np.ndarray, dW: np.ndarray, u_bridge: np.ndarray,
              couple_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a batch of uncoupled pairs from node k; returns
    (X_next, Z_next, hit).

    Both legs take the Euler update, Z with the increments reflected
    across sigma(Z)^-1 (X - Z): (X - Z) / s for sigma = s I, and simply
    -dW in 1D.  A field's declared constant scale ``sigma_scalar`` is used
    as it is, without evaluating sigma.  hit marks the pairs that meet in
    the step by ``_meets`` with the bridge uniforms u_bridge, in d >= 2 on
    xi projected on e = xi / |xi| with volatility |sigma_x^T e - H sigma_z^T e|
    (H the reflection: s_x + s_z for sigma = s I), or if |xi_next| <= couple_tol.
    Raises SimulationDivergedError(k + 1) when a state is not finite.
    """
    t, dt = grid.horizon - k * grid.dt, grid.dt
    xi = X - Z
    sig_x = sig_z = field.sigma_scalar
    if sig_x is None:
        sig_x = sigma_batch(field, t, X)
        sig_z = sigma_batch(field, t, Z)
    if field.dim == 1:
        hdw = -dW
    else:
        # for sigma = s I, xi / s rounds as solve(s I, xi) does
        v = xi / sig_z if np.ndim(sig_z) < 3 else np.linalg.solve(sig_z, xi[..., None])[..., 0]
        hdw = _reflect_increments(v, dW)
    X_next = euler_update(field, t, dt, X, sig_x, dW)
    Z_next = euler_update(field, t, dt, Z, sig_z, hdw)
    xi_next = X_next - Z_next
    # a blow-up of either leg surfaces in the separation
    if not np.isfinite(xi_next).all():
        raise SimulationDivergedError(k + 1)
    if np.ndim(sig_z) < 3:
        s = np.ravel(sig_x + sig_z)  # (n,), or the declared s + s as (1,)
    if field.dim == 1:
        return X_next, Z_next, _meets(xi[:, 0], xi_next[:, 0], s * s * dt, u_bridge,
                                      couple_tol)
    a = np.linalg.norm(xi, axis=-1)
    e = xi / a[:, None]
    if np.ndim(sig_z) == 3:
        sx, sz = (np.einsum("nji,nj->ni", sig, e) for sig in (sig_x, sig_z))
        s = np.linalg.norm(sx - _reflect_increments(v, sz), axis=-1)
    hit = _meets(a, np.sum(xi_next * e, axis=-1), s * s * dt, u_bridge, None)
    return X_next, Z_next, hit | (np.linalg.norm(xi_next, axis=-1) <= couple_tol)


def _meets(a, b, denom, u, couple_tol, out=None) -> np.ndarray:
    """The meeting test of pairs whose (projected) separation goes from a
    to b in a step; returns the hit mask.  A pair meets when |b| <=
    couple_tol (not tested when couple_tol is None) or when the
    separation's Brownian bridge crosses zero inside the step, which it
    does with probability exp(-2ab / denom), denom = s^2 dt for s the
    separation's volatility; the uniforms u draw the crossing.  The bridge
    test removes the O(sqrt(dt)) bias of a test at the nodes only.

    With out, an array of a's shape, the crossing probabilities are written
    into out and |b| into b, so the test allocates no temporary of that
    shape but the mask.  Every driver meets here in every dimension, so
    the operations and their order fix the bytes of every coupling step."""
    p = np.multiply(a, -2.0, out=out)
    np.multiply(p, b, out=p)
    np.divide(p, denom, out=p)
    # for opposite signs the exponent is >= 0, so the test fires surely.
    # Below -700 exp is under 1e-304, which no nonzero uniform undercuts;
    # clamping there keeps exp off its slow underflow path
    np.maximum(p, -700.0, out=p)
    np.exp(p, out=p)
    hit = u < p
    if couple_tol is not None:
        hit |= np.abs(b, out=None if out is None else b) <= couple_tol
    return hit


def _pair_layout(d: int) -> tuple[int, int]:
    """The draws of a pair-step: (doubles per pair-step, bridge column).
    The increments' uniforms take columns [0, d) and the bridge uniform
    follows in column d.  Every pair driver reads these draws and maps
    them with ``to_increments``, so a pair's coupling step depends neither
    on the driver nor on the block of path indices it runs in."""
    return d + 1, d


def _start_pairs(field, x, z, path_lo, path_hi, couple_tol):
    """The path indices, the coupling steps (0 if a pair's x and z already
    meet, else -1) and the start states X, Z of a block of pairs.  z is
    one start point of every pair or the pairs' own start points (n, d).
    Each pair takes the test norm(x - z) <= couple_tol on its own row, so
    no start decision depends on the batch a pair runs in."""
    paths = path_range(path_lo, path_hi)
    d, n = field.dim, len(paths)
    x = as_point(x, d, "x")
    if np.ndim(z) < 2:
        Z = np.tile(as_point(z, d, "z"), (n, 1))
    else:
        Z = np.array(z, dtype=float)
        if Z.shape != (n, d):
            raise ValidationError(f"start points of {n} pairs of this field need "
                                  f"shape {(n, d)}, got {Z.shape}")
        if not np.isfinite(Z).all():
            raise ValidationError("start points z of the pairs must be finite")
    met = np.linalg.norm(x - Z, axis=1) <= couple_tol
    tau_step = np.where(met, 0, -1).astype(np.int64)
    return paths, tau_step, np.tile(x, (n, 1)), Z


def ladder_starts(d: int, zs, n_paths: int) -> np.ndarray:
    """The pairs' start points (len(zs) n_paths, d) of a distance ladder
    run as one batch: rung i starts its n_paths pairs at zs[i]."""
    _check_count("n_paths", n_paths)
    return np.repeat(np.reshape([as_point(z, d, "z") for z in zs], (-1, d)), n_paths, axis=0)


def simulate_coupled_block(field: CoefficientField, x, z, grid: TimeGrid,
                           rng: RngStream, path_lo: int, path_hi: int,
                           couple_tol: float, stop_step: int | None = None):
    """Pairs of [path_lo, path_hi) stepped only until they meet or reach
    node stop_step (None: the horizon); returns (tau_step, rows, X, Z): the
    coupling steps (-1 for pairs unmet at the stop node), and the local ids
    and states at the stop node of the unmet pairs, in path order.

    z is one start point or one per pair (``_start_pairs``).  The unmet
    pairs are kept compacted.  Uniforms become increments only for the
    pairs about to be stepped, on a gathered copy, so a pair that meets
    inside a chunk leaves the rest of its row unmapped.  A 1D field that
    declares a constant sigma and b = 0 is scanned (``_scan_tile``) in row
    tiles that ``tile_draw`` draws as they are reached; every other field
    takes one ``pair_step`` per node in chunks (``draw_chunks``)."""
    if stop_step is not None:
        _check_count("stop_step", stop_step, least=0)
    stop = grid.steps if stop_step is None else min(stop_step, grid.steps)
    d, s = field.dim, field.sigma_scalar
    per_pair, bridge = _pair_layout(d)
    paths, tau_step, X, Z = _start_pairs(field, x, z, path_lo, path_hi, couple_tol)
    rows = np.flatnonzero(tau_step < 0)  # local ids of uncoupled pairs
    X, Z = X[rows], Z[rows]
    # overflow is handled by the finite checks, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 1 and s is not None and field.b_sup == 0.0:
            tile, draw = tile_draw(rng)
            k = 0
            while k < stop and rows.size:
                # max(64, k) steps in whole 4-step counter blocks, a row at most a tile
                k_hi = min(stop, k + max(64, k), k + tile // (4 * per_pair) * 4)
                n = tile // ((k_hi - k) * per_pair)
                # every tile of the chunk runs before rows, X, Z are rebound
                rows, X, Z = run_blocks(lambda r, x_r, z_r: _scan_tile(
                    s, grid.dt, couple_tol, k, draw(paths[r], k, k_hi, per_pair), r, x_r,
                    z_r, tau_step), ((rows[a:a + n], X[a:a + n], Z[a:a + n])
                                     for a in range(0, rows.size, n)))
                k = k_hi
            return tau_step, rows, X, Z
        for k, k_hi, u in draw_chunks(rng, lambda: paths[rows], stop, per_pair):
            dpos = np.arange(rows.size)  # row into this chunk's draws
            for kk in range(k, k_hi):
                # the index gathers a copy: the chunk keeps the raw uniforms
                dW = to_increments(u[dpos, kk - k, :d], grid.dt)
                X, Z, hit = pair_step(field, grid, kk, X, Z, dW, u[dpos, kk - k, bridge],
                                      couple_tol)
                if hit.any():
                    tau_step[rows[hit]] = kk + 1
                    keep = ~hit
                    rows, dpos, X, Z = rows[keep], dpos[keep], X[keep], Z[keep]
                    if not rows.size:
                        break
    return tau_step, rows, X, Z


def _scan_steps(n_pairs: int) -> int:
    """Steps per sub-block of ``_scan_tile``: at least 16, else about a
    chunk's draw budget / 64 doubles per (pairs, steps) temporary."""
    return chunk_steps(64 * n_pairs)


def _scan_tile(s, dt, couple_tol, k, u, rows, X, Z, tau_step):
    """The block driver's steps from node k of the pairs rows, a row tile
    of a chunk (``simulate_coupled_block``), for a 1D field with sigma = s
    and b = 0; u holds their uniforms (pairs, steps, 2), drawn by
    ``tile_draw``.  Returns the survivors (rows, X, Z) and writes the
    coupling steps into tau_step.

    A sub-block of steps at a time, it gathers the survivors' uniforms,
    turns them into increments and repeats ``pair_step`` on every node of
    every pair: np.add.accumulate sums the legs X + s dW and Z - s dW
    strictly in step order, and ``_meets`` tests every step, so every
    node, hit and divergence step equals the step loop's bit for bit.  A
    pair's first hit is its coupling step; the survivors are compacted
    between sub-blocks, so a pair's uniforms past the sub-block in which
    it meets are never mapped.  A non-finite node stays non-finite, so
    the last node of a sub-block tells whether any step of it diverged."""
    denom = (s + s) * (s + s) * dt  # s * s * dt of pair_step, s = sig_x + sig_z
    dpos = np.arange(rows.size)  # row into this chunk's draws
    j, n_steps = 0, u.shape[1]
    while j < n_steps and rows.size:
        m = min(n_steps - j, _scan_steps(rows.size))
        dW = to_increments(u[dpos, j:j + m, 0], dt)
        xs = np.empty((rows.size, m + 1))
        xs[:, 0] = X[:, 0]
        np.multiply(dW, s, out=xs[:, 1:])
        zs = np.negative(xs)
        zs[:, 0] = Z[:, 0]
        np.add.accumulate(xs, axis=1, out=xs)
        np.add.accumulate(zs, axis=1, out=zs)
        # the separations overwrite zs: keep its last node first
        Z = zs[:, m:].copy()
        xi = np.subtract(xs, zs, out=zs)
        b = xi[:, 1:]
        # the spent increments take the crossing probabilities
        hit = _meets(xi[:, :-1], b, denom, u[dpos, j:j + m, 1], couple_tol, out=dW)
        met = hit.any(axis=1)
        first = np.where(met, hit.argmax(axis=1), m)
        if not np.isfinite(b[:, -1]).all():  # |b|: the same nodes are finite
            # the loop stops at the first non-finite node of a pair that
            # has not met before it
            raise_first_nonfinite(~np.isfinite(b), k + j, first)
        tau_step[rows[met]] = k + j + first[met] + 1
        keep = ~met
        rows, dpos = rows[keep], dpos[keep]
        X, Z = xs[keep, m:], Z[keep]
        j += m
    return rows, X, Z


# overflow is handled by the finite checks, not a warning
@np.errstate(over="ignore", invalid="ignore")
def simulate_coupled_terminal(field: CoefficientField, x, z, grid: TimeGrid,
                              rng: RngStream, path_lo: int, path_hi: int,
                              couple_tol: float):
    """Coupled pairs of [path_lo, path_hi), started at x and at z (one
    point or one per pair, ``_start_pairs``), carried to the horizon; returns
    (tau_step, x_final, wx, z_final, wz): the coupling steps (-1 if unmet),
    and state and c-integral of each leg at the horizon.  After coupling
    the Z leg equals the X leg and its c-integral differs by the
    discrepancy accumulated before the coupling time.

    Every X leg takes the single-leg step; the Z legs of uncoupled pairs
    take the pair step, whose X update repeats the single-leg one bit for
    bit: that costs less than gathering and scattering the coupled rows at
    every step.  The c-integrals are skipped when c = 0, as adding 0.0 to
    the +0.0 sums is exact."""
    paths, tau_step, X, Z = _start_pairs(field, x, z, path_lo, path_hi, couple_tol)
    n, dt, T = len(paths), grid.dt, grid.horizon
    per_pair, bridge = _pair_layout(field.dim)
    with_c = field.c_sup > 0.0
    wx = np.zeros(n)
    wz = np.zeros(n)
    wz_off = np.zeros(n)
    rows = np.flatnonzero(tau_step < 0)  # local ids of uncoupled pairs
    for k, k_hi, u in draw_chunks(rng, paths, grid.steps, per_pair):
        dW = to_increments(u[:, :, :field.dim], dt)
        for kk in range(k, k_hi):
            j, t = kk - k, T - kk * dt
            if with_c:
                wx += field.c(t, X) * dt
            X_next = euler_step(field, grid, kk, X, dW[:, j])
            if rows.size:
                Zr = Z[rows]
                if with_c:
                    wz[rows] += field.c(t, Zr) * dt
                _, Z[rows], hit = pair_step(field, grid, kk, X[rows], Zr, dW[rows, j],
                                            u[rows, j, bridge], couple_tol)
                if hit.any():
                    gidx = rows[hit]
                    tau_step[gidx] = kk + 1
                    # freeze the pre-coupling c-integral discrepancy; both
                    # legs accrue identically afterwards
                    wz_off[gidx] = wz[gidx] - wx[gidx]
                    rows = rows[~hit]
            X = X_next
    coupled = tau_step >= 0
    z_final = np.where(coupled[:, None], X, Z)
    wz_final = np.where(coupled, wx + wz_off, wz)
    return tau_step, X, wx, z_final, wz_final


def _resolve_tol(couple_tol: float | None, grid: TimeGrid,
                 field: CoefficientField) -> float:
    """couple_tol, or the default tolerance when it is None; a negative or
    non-finite tolerance is an error."""
    if couple_tol is None:
        return default_couple_tol(grid, field)
    if not 0.0 <= couple_tol < np.inf:
        raise ValidationError("couple_tol must be finite and >= 0")
    return couple_tol


@np.errstate(over="ignore", invalid="ignore")
def simulate_coupled(field: CoefficientField, x, z, grid: TimeGrid, rng: RngStream,
                     couple_tol: float | None = None, path_index: int = 0) -> CoupledPath:
    """Simulate one coupled pair, recording both trajectories node by node:
    a batch of one through the steps of the block drivers."""
    couple_tol = _resolve_tol(couple_tol, grid, field)
    d, dt, T = field.dim, grid.dt, grid.horizon
    per_pair, bridge = _pair_layout(d)
    paths, tau_step, X, Z = _start_pairs(field, x, z, path_index, path_index + 1,
                                         couple_tol)
    u = rng.uniforms(paths, 0, grid.steps, per_pair)
    dW = to_increments(u[:, :, :d], dt)
    states_x = np.empty((grid.steps + 1, d))
    states_z = np.empty((grid.steps + 1, d))
    wx = np.zeros(grid.steps + 1)
    wz = np.zeros(grid.steps + 1)
    states_x[0], states_z[0] = X[0], Z[0]
    tau_index = 0 if tau_step[0] == 0 else None
    for k in range(grid.steps):
        wx[k + 1] = wx[k] + field.c(T - k * dt, X)[0] * dt
        wz[k + 1] = wz[k] + field.c(T - k * dt, Z)[0] * dt
        if tau_index is None:
            X, Z, hit = pair_step(field, grid, k, X, Z, dW[:, k], u[:, k, bridge],
                                  couple_tol)
            tau_index = k + 1 if hit[0] else None
        else:
            X = euler_step(field, grid, k, X, dW[:, k])
        if tau_index is not None:
            Z = X
        states_x[k + 1], states_z[k + 1] = X[0], Z[0]

    tau_time = min(tau_index * dt, T) if tau_index is not None else T
    return CoupledPath(
        path_x=SamplePath(grid=grid, states=states_x, weight_log=wx),
        path_z=SamplePath(grid=grid, states=states_z, weight_log=wz),
        tau_index=tau_index,
        tau_time=tau_time,
    )


def coupling_times(field: CoefficientField, x, z, grid: TimeGrid, rng: RngStream,
                   n_paths: int, couple_tol: float | None = None,
                   stop_step: int | None = None,
                   path_offset: int = 0) -> np.ndarray:
    """Coupling node indices for n_paths independent pairs (-1 marks pairs
    not coupled before stop_step); z is one start point or the pairs' own
    (n_paths, d)."""
    couple_tol = _resolve_tol(couple_tol, grid, field)
    return simulate_coupled_block(field, x, z, grid, rng, path_offset,
                                  path_offset + n_paths, couple_tol,
                                  stop_step=stop_step)[0]


def capped_times(tau_step: np.ndarray, dt: float, t: float) -> np.ndarray:
    """The coupling times t ^ tau of coupling node indices tau_step, t for
    the pairs that did not couple (-1)."""
    return np.where(tau_step >= 0, np.minimum(tau_step * dt, t), t)


def coupling_time_ladder(field: CoefficientField, x, zs, t: float,
                         grid: TimeGrid, n_paths: int, rng: RngStream,
                         couple_tol: float | None = None,
                         path_offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair samples (tau_step, capped) of each start point z of zs:
    the coupling steps (-1 for pairs unmet by t) and t ^ tau
    (``capped_times``); ``sde_engine.rung_means`` reduces them.  Rung i is
    the pairs [i n, (i + 1) n) of the arrays and [path_offset + i n,
    path_offset + (i + 1) n) of the stream, n = n_paths.  One survivor loop
    steps every rung (``ladder_starts``).  Every per-pair operation is
    element by element, so a rung has the bytes of a one-rung ladder at
    path_offset + i n; a divergence names the earliest diverging step of
    any rung.  The pairs are stepped to the last node at or before t, so a
    t off the grid counts no meeting after t."""
    if n_paths < 2:
        raise ValidationError("need at least 2 paths")
    if not 0.0 < t <= grid.horizon + 1e-12:
        raise ValidationError("t must lie in (0, horizon]")
    # the last node at or before t; the tolerance keeps the node of a t on
    # the grid whose t / dt rounds to just below it
    n_t = min(grid.steps, int(np.floor(t / grid.dt + 1e-9)))
    starts = ladder_starts(field.dim, zs, n_paths)
    tau_step = coupling_times(field, x, starts, grid, rng, len(starts),
                              couple_tol=couple_tol, stop_step=n_t,
                              path_offset=path_offset)
    return tau_step, capped_times(tau_step, grid.dt, t)


def lyapunov_f(params: LyapunovParams, eta: float) -> float:
    """Comparison function f(eta) = Integral_0^eta exp(-Integral_0^s
    2 gamma^3 rho(r)/r dr) ds, by nested adaptive quadrature.

    Raises DiniDivergenceError when the inner integral diverges (non-Dini
    modulus)."""
    from scipy.integrate import quad

    if not 0.0 <= eta < np.inf:
        raise ValidationError("eta must be finite and >= 0")
    if eta == 0.0:
        return 0.0
    rho = params.rho
    g = 2.0 * params.gamma**3
    if rho.kind == "zero":
        return float(eta)
    require_dini(rho)

    def inner(s):
        val, _ = quad(lambda r: g * rho(r) / r, 0.0, s,
                      epsrel=1e-10, epsabs=1e-14, limit=200)
        return val

    val, _ = quad(lambda s: np.exp(-inner(s)), 0.0, eta,
                  epsrel=1e-10, epsabs=0.0, limit=200)
    return val
