"""Reflection coupling of two diffusions started at nearby points.

The second process Z is driven by the Brownian increments of X reflected
across sigma(Z)^-1 (X - Z) until the pair meets, then fused with X.  For a
field that declares sigma = s I (its ``sigma`` returns the scale s) that
direction is (X - Z) / s(Z), and no linear system is solved.  On a
discrete grid the meeting is declared when |X - Z| falls below a tolerance
or, in one dimension, when the separation changes sign between nodes or a
Brownian-bridge test says it crossed zero inside the step.  The bridge
test removes the O(sqrt(dt)) bias of endpoint-only detection.

``pair_step`` is the one step of a batch of uncoupled pairs: both legs
take the Euler update of ``sde_engine.euler_update``, then the meeting
test runs.  Legs of pairs that have met take ``sde_engine.euler_step``.
Three drivers run these steps:

* the tau-only driver (``simulate_coupled_block``, ``coupling_times``)
  runs the survivor loop ``_unmet_pairs``: it keeps the unmet pairs
  compacted, steps nothing else, and draws raw uniforms in chunks that
  grow as the pairs couple.  It maps uniforms to increments lazily, only
  for the pairs it is about to step, so a pair that meets inside a chunk
  leaves the rest of its draws unmapped.  For a 1D field that declares a
  constant sigma (``CoefficientField.sigma_scalar``) and b = 0 it scans
  each chunk a sub-block of steps at a time (``_scan_chunk``) instead of
  taking one ``pair_step`` per node, with the same nodes, hits and
  divergence steps bit for bit; every other field takes the step loop.
  The coupled difference ``fk_solver.solve_difference_coupled`` runs the
  same loop up to the horizon for a field with c = 0, where a pair that
  has met adds exactly nothing: the states of the unmet pairs are all it
  needs;
* the terminal driver (``simulate_coupled_block(want_terminal=True)``)
  carries every pair to the horizon with the c-integrals of both legs;
* the recorder ``simulate_coupled`` is a batch of one that stores every
  node.

Draw layout per step of pair p (``_pair_layout``): in 1D two uniforms,
the increment's and the bridge uniform; in d >= 2, d increments.  Every
driver consumes the same draws and maps them with
``sde_engine.to_increments``, the terminal driver and the recorder a
chunk at a time, the survivor loop step by step or sub-block by
sub-block; so the coupling step of a pair does not depend on the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField, ModulusOfContinuity, require_dini
from .errors import DegenerateDirectionError, SimulationDivergedError, ValidationError
from .sde_engine import (RngStream, SamplePath, TimeGrid, as_point, chunk_steps,
                         draw_chunks, euler_step, euler_update, mean_stderr,
                         raise_first_nonfinite, run_path_blocks, sigma_batch,
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
        if self.gamma <= 0.0:
            raise ValidationError("gamma must be positive")


@dataclass(frozen=True)
class CouplingEstimate:
    mean: float
    stderr: float
    fraction_coupled: float


# tau-only runs use one big block: per-path results never depend on the
# partition, and a single block minimizes Python-loop overhead
_TAUS_BLOCK = 1 << 22


def default_couple_tol(grid: TimeGrid, field: CoefficientField) -> float:
    """Increment-scale coupling tolerance: sqrt(dt) / (10 sqrt(lam))."""
    return np.sqrt(grid.dt) / np.sqrt(field.lam) / 10.0


def reflection_matrix(sigma_z: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Householder reflector across v = sigma_z^-1 xi.

    Orthogonal, symmetric, and maps v to -v; batched over leading axes.
    """
    sigma_z = np.asarray(sigma_z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    norms = np.linalg.norm(xi, axis=-1)
    if np.any(norms < 1e-300):
        raise DegenerateDirectionError(
            "reflection direction undefined for zero separation"
        )
    v = np.linalg.solve(sigma_z, xi[..., None])[..., 0]
    vv = np.sum(v * v, axis=-1)[..., None, None]
    d = sigma_z.shape[-1]
    return np.eye(d) - 2.0 * v[..., :, None] * v[..., None, :] / vv


def _reflect_increments(v: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """H dW without forming H: dW - 2 v (v . dW) / |v|^2."""
    proj = np.sum(v * dW, axis=-1) / np.sum(v * v, axis=-1)
    return dW - 2.0 * v * proj[..., None]


def pair_step(field: CoefficientField, grid: TimeGrid, k: int, X: np.ndarray,
              Z: np.ndarray, dW: np.ndarray, u_bridge: np.ndarray | None,
              couple_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a batch of uncoupled pairs from node k; returns
    (X_next, Z_next, hit).

    Both legs take the Euler update, Z with the increments reflected
    across sigma(Z)^-1 (X - Z): (X - Z) / s for sigma = s I, and simply
    -dW in 1D.  A field's declared constant scale ``sigma_scalar`` is used
    as it is, without evaluating sigma.  hit marks the pairs that meet in
    the step: |X - Z| <= couple_tol at the new node or, in 1D, a zero
    crossing of the separation's Brownian bridge, tested with the uniforms
    u_bridge (None in d >= 2).  Raises SimulationDivergedError(k + 1) when
    a state is not finite.
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
    if field.dim > 1:
        return X_next, Z_next, np.linalg.norm(xi_next, axis=-1) <= couple_tol
    # separations a -> b cross zero with probability exp(-2ab / (s^2 dt)),
    # s the summed sigmas; for opposite signs the exponent is >= 0, so the
    # test fires surely.  Below -700 exp is under 1e-304, which no nonzero
    # uniform undercuts; clamping there keeps exp off its slow underflow path
    a, b = xi[:, 0], xi_next[:, 0]
    s = np.ravel(sig_x + sig_z)  # (n,), or the declared s + s as (1,)
    p_cross = np.exp(np.maximum(-2.0 * a * b / (s * s * dt), -700.0))
    return X_next, Z_next, (np.abs(b) <= couple_tol) | (u_bridge < p_cross)


def _pair_layout(d: int) -> tuple[int, int | None]:
    """The draws of a pair-step: (doubles per pair-step, bridge column).
    The increments' uniforms take columns [0, d); in 1D the bridge
    uniform follows in column 1, and d >= 2 has no bridge test (None)."""
    return (2, 1) if d == 1 else (d, None)


def simulate_coupled_block(field: CoefficientField, x, z, grid: TimeGrid,
                           rng: RngStream, path_lo: int, path_hi: int,
                           couple_tol: float, stop_step: int | None = None,
                           want_terminal: bool = False):
    """Vectorized coupled pairs over the path-index range [path_lo, path_hi).

    Returns tau_step, the node index at which coupling was declared (-1 if
    the pair did not couple before ``stop_step``).  With want_terminal the
    pairs run over the full grid and the result is (tau_step, x_final, wx,
    z_final, wz): state and c-integral of each leg at the horizon; after
    coupling the Z leg equals the X leg and its c-integral differs by the
    discrepancy accumulated before the coupling time.

    Per-path results depend only on (seed, path index) and the arguments,
    never on block boundaries, so any partitioning reproduces them.
    """
    if want_terminal:
        paths, tau_step, X, Z = _start_pairs(field, x, z, path_lo, path_hi, couple_tol)
        # overflow is handled by the finite checks, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _terminal_pairs(field, grid, rng, paths, couple_tol, tau_step, X, Z)
    stop = grid.steps if stop_step is None else min(stop_step, grid.steps)
    return _unmet_pairs(field, x, z, grid, rng, path_lo, path_hi, couple_tol, stop)[0]


def _start_pairs(field, x, z, path_lo, path_hi, couple_tol):
    """The path indices, the coupling steps (0 if x and z already meet,
    else -1) and the start states X, Z of a block of pairs."""
    d, n = field.dim, path_hi - path_lo
    x, z = as_point(x, d), as_point(z, d)
    paths = np.arange(path_lo, path_hi, dtype=np.uint64)
    met = float(np.linalg.norm(x - z)) <= couple_tol
    tau_step = np.full(n, 0 if met else -1, dtype=np.int64)
    return paths, tau_step, np.tile(x, (n, 1)), np.tile(z, (n, 1))


def _unmet_pairs(field, x, z, grid, rng, path_lo, path_hi, couple_tol, stop):
    """Pairs of [path_lo, path_hi) stepped only until they meet or reach
    node stop; returns (tau_step, rows, X, Z): the coupling steps (-1 for
    pairs unmet at stop), and the local ids and states at stop of the
    unmet pairs, in path order.

    The unmet pairs are kept compacted and drawn in chunks of raw uniforms
    that grow as the pairs meet (``draw_chunks``).  Uniforms become
    increments (``to_increments``) only for the pairs about to be stepped,
    on a gathered copy: a pair that meets inside a chunk leaves the rest of
    its row unmapped.  A 1D field that declares a constant sigma and b = 0
    is scanned a sub-block of steps at a time (``_scan_chunk``); every
    other field takes one ``pair_step`` per node."""
    d = field.dim
    per_pair, bridge = _pair_layout(d)
    paths, tau_step, X, Z = _start_pairs(field, x, z, path_lo, path_hi, couple_tol)
    rows = np.flatnonzero(tau_step < 0)  # local ids of uncoupled pairs
    X, Z = X[rows], Z[rows]
    scan = d == 1 and field.sigma_scalar is not None and field.b_sup == 0.0
    # overflow is handled by the finite checks, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # the fewer survivors, the longer the chunk
        for k, k_hi, u in draw_chunks(rng, lambda: paths[rows], stop, per_pair):
            if scan:
                rows, X, Z = _scan_chunk(field.sigma_scalar, grid.dt, couple_tol,
                                         k, u, rows, X, Z, tau_step)
                continue
            dpos = np.arange(rows.size)  # row into this chunk's draws
            for kk in range(k, k_hi):
                # the index gathers a copy: the chunk keeps the raw uniforms
                dW = to_increments(u[dpos, kk - k, :d], grid.dt)
                X, Z, hit = pair_step(field, grid, kk, X, Z, dW,
                                      None if bridge is None else u[dpos, kk - k, bridge],
                                      couple_tol)
                if hit.any():
                    tau_step[rows[hit]] = kk + 1
                    keep = ~hit
                    rows, dpos, X, Z = rows[keep], dpos[keep], X[keep], Z[keep]
                    if not rows.size:
                        break
    return tau_step, rows, X, Z


def _scan_steps(n_pairs: int) -> int:
    """Steps per sub-block of ``_scan_chunk``: at least 16, else about a
    chunk's draw budget / 64 doubles per (pairs, steps) temporary."""
    return chunk_steps(64 * n_pairs)


def _scan_chunk(s, dt, couple_tol, k, u, rows, X, Z, tau_step):
    """The tau-only steps of a chunk of uniforms u (pairs, steps, 2) in the
    1D pair layout, for a field with sigma = s and b = 0, a sub-block of
    steps at a time; returns the survivors (rows, X, Z) and writes the
    coupling steps into tau_step.

    Each sub-block gathers the survivors' uniforms, turns them into
    increments (``to_increments``) and repeats ``pair_step`` on every node
    of every pair: np.add.accumulate sums the legs X + s dW and Z - s dW
    strictly in step order, and the meeting test runs with the same
    operations, so every node, hit and divergence step equals the step
    loop's bit for bit.  A pair's first hit is its coupling step; the
    survivors are compacted between sub-blocks, so a pair's uniforms past
    the sub-block in which it meets are never mapped."""
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
        a, b = xi[:, :-1], xi[:, 1:]
        # -2 a b / denom in pair_step's order, in the spent increments' array
        p_cross = dW
        np.multiply(a, -2.0, out=p_cross)
        np.multiply(p_cross, b, out=p_cross)
        np.divide(p_cross, denom, out=p_cross)
        np.maximum(p_cross, -700.0, out=p_cross)
        np.exp(p_cross, out=p_cross)
        hit = np.abs(b, out=b) <= couple_tol
        hit |= u[dpos, j:j + m, 1] < p_cross
        met = hit.any(axis=1)
        first = np.where(met, hit.argmax(axis=1), m)
        bad = ~np.isfinite(b)  # |b|: the same nodes are finite
        if bad.any():
            # the loop stops at the first non-finite node of a pair that
            # has not met before it
            raise_first_nonfinite(bad, k + j, first)
        tau_step[rows[met]] = k + j + first[met] + 1
        keep = ~met
        rows, dpos = rows[keep], dpos[keep]
        X, Z = xs[keep, m:], Z[keep]
        j += m
    return rows, X, Z


def _terminal_pairs(field, grid, rng, paths, couple_tol, tau_step, X, Z):
    """Pairs carried to the horizon with their c-integrals.  Every X leg
    takes the single-leg step; the Z legs of uncoupled pairs take the pair
    step, whose X update repeats the single-leg one bit for bit: that costs
    less than gathering and scattering the coupled rows at every step.
    The c-integrals are skipped when c = 0, as adding 0.0 to the +0.0 sums
    is exact."""
    n, dt, T = len(paths), grid.dt, grid.horizon
    per_pair, bridge = _pair_layout(field.dim)
    with_c = field.c_sup > 0.0
    wx = np.zeros(n)
    wz = np.zeros(n)
    wz_off = np.zeros(n)
    rows = np.flatnonzero(tau_step < 0)  # local ids of uncoupled pairs
    for k, k_hi, u in draw_chunks(rng, lambda: paths, grid.steps, per_pair):
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
                _, Z[rows], hit = pair_step(
                    field, grid, kk, X[rows], Zr, dW[rows, j],
                    None if bridge is None else u[rows, j, bridge], couple_tol)
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


def simulate_coupled(field: CoefficientField, x, z, grid: TimeGrid, rng: RngStream,
                     couple_tol: float | None = None, path_index: int = 0) -> CoupledPath:
    """Simulate one coupled pair, recording both trajectories node by node:
    a batch of one through the steps of the block drivers."""
    couple_tol = _resolve_tol(couple_tol, grid, field)
    d, dt, T = field.dim, grid.dt, grid.horizon
    x, z = as_point(x, d), as_point(z, d)
    per_pair, bridge = _pair_layout(d)
    u = rng.uniforms([path_index], 0, grid.steps, per_pair)
    dW = to_increments(u[:, :, :d], dt)
    states_x = np.empty((grid.steps + 1, d))
    states_z = np.empty((grid.steps + 1, d))
    wx = np.zeros(grid.steps + 1)
    wz = np.zeros(grid.steps + 1)
    states_x[0], states_z[0] = x, z
    tau_index = 0 if float(np.linalg.norm(x - z)) <= couple_tol else None
    X, Z = x[None, :], z[None, :]
    for k in range(grid.steps):
        wx[k + 1] = wx[k] + field.c(T - k * dt, X)[0] * dt
        wz[k + 1] = wz[k] + field.c(T - k * dt, Z)[0] * dt
        if tau_index is None:
            X, Z, hit = pair_step(field, grid, k, X, Z, dW[:, k],
                                  None if bridge is None else u[:, k, bridge],
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
    not coupled before stop_step)."""
    couple_tol = _resolve_tol(couple_tol, grid, field)

    def worker(lo, hi):
        return simulate_coupled_block(field, x, z, grid, rng, lo, hi,
                                      couple_tol, stop_step=stop_step)

    return run_path_blocks(n_paths, worker, path_offset=path_offset,
                           block_size=_TAUS_BLOCK)


def coupling_time_expectation(field: CoefficientField, x, z, t: float,
                              grid: TimeGrid, n_paths: int, rng: RngStream,
                              couple_tol: float | None = None,
                              path_offset: int = 0) -> CouplingEstimate:
    """Monte Carlo estimate of E[t ^ tau] with its standard error and the
    fraction of pairs coupled by t."""
    if n_paths < 2:
        raise ValidationError("need at least 2 paths")
    if not 0.0 < t <= grid.horizon + 1e-12:
        raise ValidationError("t must lie in (0, horizon]")
    n_t = min(grid.steps, int(round(t / grid.dt)))
    tau_steps = coupling_times(field, x, z, grid, rng, n_paths,
                               couple_tol=couple_tol, stop_step=n_t,
                               path_offset=path_offset)
    capped = np.where(tau_steps >= 0, np.minimum(tau_steps * grid.dt, t), t)
    mean, se = mean_stderr(capped)
    frac = float(np.mean(tau_steps >= 0))
    return CouplingEstimate(mean=mean, stderr=se, fraction_coupled=frac)


def lyapunov_f(params: LyapunovParams, eta: float) -> float:
    """Comparison function f(eta) = Integral_0^eta exp(-Integral_0^s
    2 gamma^3 rho(r)/r dr) ds, by nested adaptive quadrature.

    Raises DiniDivergenceError when the inner integral diverges (non-Dini
    modulus)."""
    from scipy.integrate import quad

    if eta < 0.0:
        raise ValidationError("eta must be >= 0")
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
