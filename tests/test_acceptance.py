"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE NN PASS|FAIL`` line with the measured
quantities, then asserts the stated tolerance and runtime budget.  Run with
``pytest -s`` to see the lines for passing criteria as well.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from couplemc import (ExperimentConfig, LyapunovParams, ModulusOfContinuity,
                      RngStream, SolveRequest, TimeGrid, bm_coupling_expectation,
                      coupling_time_ladder, fit_power_law, heat_kernel,
                      lyapunov_f, running_max_bounds, sgn_drift_density,
                      sgn_drift_solution, solve_u, sqrt_spd)
from couplemc.cli import _run_modulus, run_experiment
from couplemc.config import load_config
from couplemc.coupling import _reflect_increments
from couplemc.oracles import RunningMaxQuery
from couplemc.sde_engine import simulate_brownian_running_max
from couplemc.registry import (make_constant_field, make_gaussian_bump,
                               make_sgn_drift_field, make_sin_field)

CONFIG_DIR = __file__.rsplit("/tests/", 1)[0] + "/configs"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)


def test_criterion_01_matrix_square_root():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        w = 10.0 ** rng.uniform(-2.0, 2.0, d)  # condition number <= 1e4
        A = (Q * w) @ Q.T
        A = 0.5 * (A + A.T)
        sig = sqrt_spd(A)
        rel = np.linalg.norm(sig @ sig - A) / np.linalg.norm(A)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"worst rel resid {worst:.3e} (<=1e-10), {elapsed:.2f}s (<5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_reflector():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst_orth = 0.0
    worst_refl = 0.0
    for d in (1, 2, 3, 4):
        n = 2500
        M = rng.standard_normal((n, d, d))
        sig = M @ np.swapaxes(M, -1, -2) + 0.5 * np.eye(d)
        xi = rng.standard_normal((n, d))
        # the reflector pair_step applies across v = sigma^-1 xi: column j
        # of H is the reflection of e_j
        v = np.linalg.solve(sig, xi[..., None])[..., 0]
        H = np.swapaxes(_reflect_increments(v[:, None, :], np.eye(d)), -1, -2)
        gram = np.einsum("nji,njk->nik", H, H) - np.eye(d)
        worst_orth = max(worst_orth,
                         float(np.linalg.norm(gram, axis=(1, 2)).max()))
        num = np.linalg.norm(np.einsum("nij,nj->ni", H, v) + v, axis=1)
        worst_refl = max(worst_refl,
                         float((num / np.linalg.norm(v, axis=1)).max()))
    elapsed = time.monotonic() - start
    ok = worst_orth <= 1e-12 and worst_refl <= 1e-12 and elapsed < 5.0
    _report(2, ok, f"orthogonality {worst_orth:.3e}, reflection {worst_refl:.3e}"
                   f" (<=1e-12), {elapsed:.2f}s (<5s)")
    assert worst_orth <= 1e-12
    assert worst_refl <= 1e-12
    assert elapsed < 5.0


def test_criterion_03_coupling_vs_exact_oracle():
    field = make_constant_field(dim=1)
    grid = TimeGrid(1.0, 10_000)  # dt = 1e-4
    rng = RngStream(123)
    n = 100_000
    start = time.monotonic()
    lines = []
    ok = True
    for i, d0 in enumerate((0.2, 0.1, 0.05)):
        est = coupling_time_ladder(field, [0.0], [[d0]], 1.0, grid, n, rng,
                                   path_offset=i * n)[0]
        oracle = bm_coupling_expectation(d0, 1.0)
        band = 3.0 * est.stderr + 0.02 * oracle
        diff = abs(est.mean - oracle)
        ok &= diff <= band
        lines.append(f"d0={d0}: |{est.mean:.5f}-{oracle:.5f}|={diff:.2e}"
                     f"<=+-{band:.2e}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _report(3, ok, "; ".join(lines) + f", {elapsed:.1f}s (<300s)")
    assert ok


def test_criterion_04_lipschitz_regime_slope():
    field = make_sin_field(dim=1, amp=0.5)
    grid = TimeGrid(1.0, 10_000)  # dt = 1e-4
    rng = RngStream(2024)
    n = 50_000
    start = time.monotonic()
    pairs = []
    for i, d0 in enumerate((0.2, 0.1, 0.05, 0.025, 0.0125)):
        est = coupling_time_ladder(field, [0.0], [[d0]], 1.0, grid, n, rng,
                                   path_offset=i * n)[0]
        pairs.append((d0, est.mean))
    fit = fit_power_law(pairs)
    elapsed = time.monotonic() - start
    ok = 0.9 <= fit.slope <= 1.1 and elapsed < 600.0
    _report(4, ok, f"slope {fit.slope:.4f}+-{fit.slope_stderr:.4f} in [0.9,1.1],"
                   f" {elapsed:.1f}s (<600s)")
    assert 0.9 <= fit.slope <= 1.1
    assert elapsed < 600.0


def test_criterion_05_feynman_kac_gaussian():
    field = make_constant_field(dim=1)
    term = make_gaussian_bump(0.0, 1.0)
    start = time.monotonic()
    req = SolveRequest(field=field, terminal=term,
                       eval_point=np.array([0.0]), n_paths=100_000,
                       grid=TimeGrid(1.0, 1000))  # dt = 1e-3
    est, se = solve_u(req, RngStream(5))
    exact = 1.0 / np.sqrt(2.0)
    diff = abs(est - exact)
    tol = 3.0 * se + 1e-3

    # potential-shift identity: adding kappa to c multiplies the estimate
    # by exp(kappa * T) path by path at a fixed seed
    kappa = 0.5
    grid = TimeGrid(1.0, 1024)  # dt is a binary fraction: the sum is exact
    kw = dict(terminal=term, eval_point=np.array([0.0]),
              n_paths=2000, grid=grid)
    e0, _ = solve_u(SolveRequest(field=make_constant_field(dim=1), **kw),
                    RngStream(9))
    e1, _ = solve_u(SolveRequest(field=make_constant_field(dim=1, c0=kappa),
                                 **kw), RngStream(9))
    shift_rel = abs(e1 - e0 * np.exp(kappa)) / abs(e1)
    elapsed = time.monotonic() - start
    ok = diff <= tol and shift_rel <= 1e-14
    _report(5, ok, f"|{est:.5f}-{exact:.5f}|={diff:.2e}<={tol:.2e};"
                   f" shift identity rel err {shift_rel:.1e} (<=1e-14),"
                   f" {elapsed:.1f}s")
    assert diff <= tol
    assert shift_rel <= 1e-14


def test_criterion_06_sgn_drift_oracle():
    start = time.monotonic()
    worst_mass = 0.0
    for theta in (0.5, 1.0, 2.0):
        for t in (0.25, 1.0):
            mass, _ = quad(lambda y: sgn_drift_density(theta, t, 0.25, y),
                           -40.0, 40.0, points=[0.0, 0.25], limit=400)
            worst_mass = max(worst_mass, abs(mass - 1.0))

    y = np.linspace(-5.0, 5.0, 201)
    dens0 = sgn_drift_density(0.0, 0.7, 0.3, y)
    heat = np.array([heat_kernel(1.0, 0.0, 0.7, 0.3, yi) for yi in y])
    worst_heat = float(np.abs(dens0 - heat).max())

    theta, t, x = 1.0, 1.0, 0.25
    oracle = sgn_drift_solution(theta, t, x, lambda y: np.exp(-y * y / 2.0))
    field = make_sgn_drift_field(theta)
    req = SolveRequest(field=field, terminal=make_gaussian_bump(0.0, 1.0),
                       eval_point=np.array([x]),
                       n_paths=100_000, grid=TimeGrid(t, 1000))
    est, se = solve_u(req, RngStream(6))
    diff = abs(est - oracle)
    tol = 3.0 * se + 2e-2
    elapsed = time.monotonic() - start
    ok = (worst_mass <= 1e-6 and worst_heat <= 1e-12 and diff <= tol
          and elapsed < 600.0)
    _report(6, ok, f"mass err {worst_mass:.1e} (<=1e-6), heat-kernel err"
                   f" {worst_heat:.1e} (<=1e-12),"
                   f" |{est:.5f}-{oracle:.5f}|={diff:.2e}<={tol:.2e},"
                   f" {elapsed:.1f}s (<600s)")
    assert worst_mass <= 1e-6
    assert worst_heat <= 1e-12
    assert diff <= tol
    assert elapsed < 600.0


def test_criterion_07_running_max():
    start = time.monotonic()
    n = 100_000
    m = simulate_brownian_running_max(1.0, n, 64, RngStream(77))
    lines = []
    ok = True
    for x in (0.5, 1.0, 2.0):
        bounds = running_max_bounds(RunningMaxQuery(t=1.0, x=x))
        p_ge = float(np.mean(m >= x))
        se = np.sqrt(p_ge * (1.0 - p_ge) / n)
        ok &= abs(p_ge - bounds.exact) <= 3.0 * se
        ok &= p_ge <= bounds.upper_tail
        ok &= float(np.mean(m <= x)) <= bounds.lower_level
        lines.append(f"x={x}: |{p_ge:.4f}-{bounds.exact:.4f}|<=3SE,"
                     f" tail<= {bounds.upper_tail:.4f},"
                     f" level<= {bounds.lower_level:.4f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report(7, ok, "; ".join(lines) + f", {elapsed:.1f}s (<120s)")
    assert ok


def test_criterion_08_solution_modulus():
    start = time.monotonic()
    field = make_sin_field(dim=1, amp=0.5)
    term = make_gaussian_bump(0.0, 1.0)
    distances = (0.2, 0.1, 0.05, 0.025, 0.0125)
    n = 40_000
    grid = TimeGrid(1.0, 1000)  # dt = 1e-3
    cfg = ExperimentConfig(
        kind="modulus", seed=11, field_name="sin", field_params={"dim": 1, "amp": 0.5},
        terminal_name="gaussian-bump", terminal_params={"center": 0.0, "width": 1.0},
        base_point=(1.0,), direction=(1.0,), ladder=distances,
        horizon=grid.horizon, steps=grid.steps, n_paths=n)
    table, fits = _run_modulus(cfg)
    slope = fits["delta_u_power_fit"]["slope"]
    se_coupled = table.column("stderr_u")

    # independent-difference baseline: disjoint fresh paths at each endpoint
    indep_rng = RngStream(12)
    se_indep = []
    for i, r in enumerate(distances):
        kw = dict(field=field, terminal=term, n_paths=n,
                  grid=grid)
        _, se_a = solve_u(SolveRequest(eval_point=np.array([1.0]), **kw),
                          indep_rng, path_offset=2 * i * n)
        _, se_b = solve_u(SolveRequest(eval_point=np.array([1.0 + r]), **kw),
                          indep_rng, path_offset=(2 * i + 1) * n)
        se_indep.append(np.hypot(se_a, se_b))
    se_indep = np.array(se_indep)
    variance_win = bool(np.all(se_coupled < se_indep))
    elapsed = time.monotonic() - start
    ok = 0.9 <= slope <= 1.05 and variance_win and elapsed < 900.0
    _report(8, ok, f"slope {slope:.4f} in [0.9,1.05]; coupled SE"
                   f" max {se_coupled.max():.2e} < independent SE"
                   f" min {se_indep.min():.2e} at every distance:"
                   f" {variance_win}, {elapsed:.1f}s (<900s)")
    assert 0.9 <= slope <= 1.05
    assert variance_win
    assert elapsed < 900.0


def test_criterion_09_lyapunov_function():
    rho = ModulusOfContinuity("power", scale=1.0, alpha=1.0)
    params = LyapunovParams(gamma=1.0, rho=rho)
    worst = 0.0
    for eta in (0.1, 1.0, 10.0):
        exact = (1.0 - np.exp(-2.0 * eta)) / 2.0
        worst = max(worst, abs(lyapunov_f(params, eta) - exact))

    etas = np.linspace(0.0, 2.0, 100)
    vals = np.array([lyapunov_f(params, e) for e in etas])
    increasing = bool(np.all(np.diff(vals) > 0.0))
    concave = bool(np.all(np.diff(vals, 2) <= 1e-12))
    ok = worst <= 1e-8 and increasing and concave
    _report(9, ok, f"max err vs (1-exp(-2 eta))/2: {worst:.2e} (<=1e-8);"
                   f" increasing {increasing}, concave {concave}")
    assert worst <= 1e-8
    assert increasing
    assert concave


def test_criterion_10_determinism(tmp_path):
    import glob

    cfg_paths = sorted(glob.glob(CONFIG_DIR + "/*.cfg"))
    assert cfg_paths, "no shipped configs found"
    ok = True
    names = []
    for path in cfg_paths:
        name = path.rsplit("/", 1)[1].removesuffix(".cfg")
        cfg = load_config(path)
        d1 = tmp_path / f"{name}-a"
        d2 = tmp_path / f"{name}-b"
        run_experiment(cfg, str(tmp_path), run_dir=str(d1))
        run_experiment(cfg, str(tmp_path), run_dir=str(d2))
        same_rerun = ((d1 / "results.csv").read_bytes()
                      == (d2 / "results.csv").read_bytes())
        ok &= same_rerun
        names.append(f"{name}: rerun {same_rerun}")
    _report(10, ok, "; ".join(names))
    assert ok
