import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri

from couplemc import (CoefficientField, LyapunovParams, ModulusOfContinuity,
                      RngStream, TimeGrid, ZERO_MODULUS, bm_coupling_expectation,
                      bm_coupling_survival, coupling, coupling_times,
                      default_couple_tol, difference_ladder, lyapunov_f,
                      sde_engine, SolveRequest, simulate_coupled, simulate_path,
                      solve_u)
from couplemc.coupling import (_reflect_increments, coupling_time_ladder, pair_step,
                              simulate_coupled_block, simulate_coupled_terminal)
from couplemc.errors import DiniDivergenceError, SimulationDivergedError, ValidationError
from couplemc.registry import (build_field, make_constant_field,
                               make_constant_terminal, make_sin_field)
from couplemc.sde_engine import rung_means, simulate_terminal


def reflector(sig, xi):
    """The matrix H that ``_reflect_increments`` applies across v =
    sig^-1 xi, batched over leading axes: column j is the reflection of
    e_j."""
    v = np.linalg.solve(sig, xi[..., None])[..., 0]
    return np.swapaxes(_reflect_increments(v[..., None, :], np.eye(xi.shape[-1])), -1, -2)


class TestReflector:
    def test_properties(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 5):
            M = rng.standard_normal((d, d))
            sig = M @ M.T + 0.5 * np.eye(d)
            xi = rng.standard_normal(d)
            H = reflector(sig, xi)
            assert np.allclose(H @ H.T, np.eye(d), atol=1e-12)
            assert np.allclose(H, H.T, atol=1e-12)
            v = np.linalg.solve(sig, xi)
            assert np.allclose(H @ v, -v, atol=1e-12 * np.linalg.norm(v))

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 5), data=st.data())
    def test_properties_for_random_spd_sigma(self, d, data):
        # orthogonal, symmetric, and maps sigma^-1 xi to its negative for
        # any SPD sigma = M M^T + eps I and nonzero xi
        entries = st.floats(-2.0, 2.0)
        M = data.draw(arrays(float, (d, d), elements=entries))
        eps = data.draw(st.floats(0.05, 2.0))
        xi = data.draw(arrays(float, d, elements=entries))
        assume(np.linalg.norm(xi) > 1e-3)
        sig = M @ M.T + eps * np.eye(d)
        H = reflector(sig, xi)
        assert np.allclose(H @ H.T, np.eye(d), atol=1e-12)
        assert np.allclose(H, H.T, atol=1e-12)
        v = np.linalg.solve(sig, xi)
        assert np.allclose(H @ v, -v, atol=1e-12 * np.linalg.norm(v))

    def test_batched(self):
        rng = np.random.default_rng(1)
        sig = np.tile(np.eye(2), (4, 1, 1))
        xi = rng.standard_normal((4, 2))
        H = reflector(sig, xi)
        assert H.shape == (4, 2, 2)
        assert np.allclose(np.einsum("nij,nkj->nik", H, H), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_step_applies_the_checked_reflection(dim):
    # with b = 0, Z moves by sigma(Z) H dW, H the reflector across
    # v = sigma(Z)^-1 (X - Z) that TestReflector checks; sigma depends on
    # x, so a reflection across X - Z or sigma(X)^-1 (X - Z) differs
    rng = np.random.default_rng(5)
    B = rng.standard_normal((dim, dim))
    S = (B + B.T) / np.linalg.norm(B + B.T, 2)

    def sigma(t, x):
        return np.eye(dim) + 0.4 * np.sin(2.0 * x[:, 0])[:, None, None] * S

    f = CoefficientField(
        dim=dim, a=lambda t, x: sigma(t, x) @ sigma(t, x), b=lambda t, x: np.zeros_like(x),
        c=lambda t, x: np.zeros(len(x)), lam=3.0, b_sup=0.0, c_sup=0.0, sigma=sigma)
    grid = TimeGrid(1.0, 100)
    n = 64
    X = rng.uniform(-2.0, 2.0, (n, dim))
    Z = X + rng.uniform(0.5, 1.0, (n, dim)) * rng.choice([-1.0, 1.0], (n, dim))
    dW = rng.standard_normal((n, dim)) * np.sqrt(grid.dt)
    _, Z_next, _ = pair_step(f, grid, 3, X, Z, dW, np.ones(n), 0.0)
    sz = sigma(0.0, Z)
    want = np.einsum("nij,njk,nk->ni", sz, reflector(sz, X - Z), dW)
    err = np.linalg.norm(Z_next - Z - want, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.fixture
def mapped(monkeypatch):
    """The sizes of the arrays the coupling drivers pass to ndtri."""
    sizes = []

    def counting(u, out=None):
        sizes.append(u.size)
        return ndtri(u, out=out)

    monkeypatch.setattr(sde_engine, "ndtri", counting)
    return sizes


def _spoil(monkeypatch, bad):
    """{path: step} of the increments that the coupling drivers see as bad:
    the drawn uniform of each injected step is marked with a value no
    uniform takes, and the map to increments replaces its increment."""
    inject = {}
    mark = 2.0
    uniforms, increments = RngStream.uniforms, coupling.to_increments

    def marked(self, paths, lo, hi, d, buf=None):
        u = uniforms(self, paths, lo, hi, d, buf)
        for p, k in inject.items():
            row = np.flatnonzero(np.asarray(paths) == p)
            if row.size and lo <= k < hi:
                u[row[0], k - lo, 0] = mark
        return u

    def spoiled(u, dt):
        at = u == mark
        dW = increments(u, dt)
        dW[at] = bad
        return dW

    monkeypatch.setattr(RngStream, "uniforms", marked)
    monkeypatch.setattr(coupling, "to_increments", spoiled)
    return inject


def _diverged_at(field, *args, **kwargs):
    """The step at which coupling_times(field, *args, **kwargs) diverges,
    None if it does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            coupling_times(field, *args, **kwargs)
        except SimulationDivergedError as exc:
            return exc.step_index
    return None


class TestCoupledPair:
    def test_immediate_coupling(self):
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 16)
        pair = simulate_coupled(f, [0.3], [0.3], grid, RngStream(0))
        assert pair.tau_index == 0
        assert pair.tau_time == 0.0
        assert np.array_equal(pair.path_x.states, pair.path_z.states)

    def test_fusion_after_coupling(self):
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 400)
        pair = simulate_coupled(f, [0.0], [0.05], grid, RngStream(4),
                                couple_tol=0.01)
        assert pair.tau_index is not None
        k = pair.tau_index
        assert np.array_equal(pair.path_x.states[k:], pair.path_z.states[k:])
        # before coupling the trajectories are distinct
        assert not np.array_equal(pair.path_x.states[:k], pair.path_z.states[:k])

    @pytest.mark.parametrize("field,x,z,tol_factor", [
        (make_sin_field(dim=1, amp=0.4), [0.0], [0.1], 1.0),
        (make_constant_field(dim=2, a0=[[1.5, 0.3], [0.3, 1.0]]),
         [0.0, 0.0], [0.1, 0.05], 10.0),
        (make_sin_field(dim=2, amp=0.4), [0.0, 0.0], [0.1, 0.05], 10.0),
    ], ids=["sin-1d", "anisotropic-2d", "sin-2d"])
    def test_single_pair_matches_block(self, field, x, z, tol_factor):
        # the block driver, the terminal driver and the recorder give
        # the same coupling step for every pair
        grid = TimeGrid(1.0, 300)
        rng = RngStream(6)
        tol = tol_factor * default_couple_tol(grid, field)
        taus = coupling_times(field, x, z, grid, rng, 12, couple_tol=tol)
        terminal = simulate_coupled_terminal(field, x, z, grid, rng, 0, 12, tol)[0]
        assert np.array_equal(taus, terminal)
        assert np.any(taus >= 0)
        for p in range(12):
            pair = simulate_coupled(field, x, z, grid, rng,
                                    couple_tol=tol, path_index=p)
            expected = -1 if pair.tau_index is None else pair.tau_index
            assert taus[p] == expected

    @pytest.mark.parametrize("field,x,z,tol_factor,budget", [
        (make_constant_field(dim=1), [0.0], [0.3], 1.0, None),
        (make_sin_field(dim=1, amp=0.4), [0.0], [0.3], 1.0, None),
        (make_sin_field(dim=2, amp=0.4), [0.0, 0.0], [0.2, 0.1], 10.0, 16 * 2 * 40),
    ], ids=["scan-1d", "step-loop-1d", "chunked-2d"])
    def test_block_driver_returns_the_unmet_pairs_at_the_horizon(
            self, field, x, z, tol_factor, budget, monkeypatch):
        # for c = 0 the block driver's (rows, X, Z) are the pairs that the
        # terminal driver leaves unmet and their states at the horizon,
        # byte for byte; the 2D budget splits the horizon into chunks
        assert field.c_sup == 0.0
        if budget is not None:
            monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", budget)
        grid = TimeGrid(1.0, 100)
        tol = tol_factor * default_couple_tol(grid, field)
        tau, rows, X, Z = simulate_coupled_block(field, x, z, grid, RngStream(21),
                                                 0, 40, tol)
        tau_t, X_t, _, Z_t, _ = simulate_coupled_terminal(field, x, z, grid,
                                                          RngStream(21), 0, 40, tol)
        unmet = np.flatnonzero(tau_t == -1)
        assert 0 < unmet.size < 40
        assert tau.tobytes() == tau_t.tobytes()
        assert rows.tobytes() == unmet.tobytes()
        assert X.tobytes() == X_t[unmet].tobytes()
        assert Z.tobytes() == Z_t[unmet].tobytes()

    def test_multidimensional_coupling(self):
        f = make_constant_field(dim=2, a0=[[1.5, 0.3], [0.3, 1.0]])
        grid = TimeGrid(1.0, 500)
        taus = coupling_times(f, [0.0, 0.0], [0.2, 0.0], grid, RngStream(7),
                              400, couple_tol=0.02)
        frac = np.mean(taus >= 0)
        assert frac > 0.5
        assert np.all(taus[taus >= 0] >= 1)

    def test_partition_invariance(self):
        # a pair's coupling time depends on its path index only, not on the
        # range of pairs simulated with it (which sets the chunk lengths)
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 200)
        rng = RngStream(8)
        one = coupling_times(f, [0.0], [0.1], grid, rng, 64)
        head = coupling_times(f, [0.0], [0.1], grid, rng, 23)
        tail = coupling_times(f, [0.0], [0.1], grid, rng, 41, path_offset=23)
        assert np.array_equal(one, np.concatenate([head, tail]))

    def test_expectation_near_oracle(self):
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 2000)
        tau_step, capped = coupling_time_ladder(f, [0.0], [[0.1]], 1.0, grid, 8000,
                                                RngStream(9))
        [((mean, se), (frac, _))] = rung_means(8000, capped, tau_step >= 0)
        oracle = bm_coupling_expectation(0.1, 1.0)
        assert abs(mean - oracle) <= 3.0 * se + 0.02 * oracle
        assert 0.9 < frac <= 1.0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shape", ["isotropic", "anisotropic"])
    def test_expectation_near_oracle_in_higher_dimensions(self, shape, dim):
        # with constant sigma the separation stays on its line e, and
        # |xi| |sigma^-1 e| moves as the 1D pair's distance
        a = np.ones(dim) if shape == "isotropic" else np.linspace(0.5, 2.0, dim)
        f = make_constant_field(dim=dim, a0=np.diag(a))
        e = np.ones(dim) / np.sqrt(dim)
        d0 = 0.2
        x = np.zeros(dim)
        _, capped = coupling_time_ladder(f, x, [x + d0 * e], 1.0, TimeGrid(1.0, 500),
                                         4000, RngStream(21))
        mean, se = sde_engine.mean_stderr(capped)
        oracle = bm_coupling_expectation(d0 * np.linalg.norm(e / np.sqrt(a)), 1.0)
        assert abs(mean - oracle) <= 3.0 * se + 0.02 * oracle, (mean, se, oracle)

    def test_expectation_off_the_grid_counts_meetings_by_t(self):
        # t = 0.55 lies between nodes 5 and 6: a pair that meets at node 6
        # has not met by t, and a t on the grid keeps its own node
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 10)
        taus = coupling_times(f, [0.0], [0.3], grid, RngStream(3), 4000)
        assert np.sum(taus == 6) > 0
        for t, node in ((0.55, 5), (0.5, 5), (0.6, 6), (0.3, 3), (1.0, 10)):
            tau_step, capped = coupling_time_ladder(f, [0.0], [[0.3]], t, grid, 4000,
                                                    RngStream(3))
            met = (taus >= 0) & (taus <= node)
            assert np.array_equal(tau_step >= 0, met), t
            assert np.array_equal(tau_step, np.where(met, taus, -1)), t
            # 6 dt rounds to just above t = 0.6: a time is never past t
            want = np.where(met, np.minimum(taus * grid.dt, t), t)
            assert capped.tobytes() == want.tobytes(), t

    def test_expectation_validation(self):
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValidationError):
            coupling_time_ladder(f, [0.0], [[0.1]], 2.0, grid, 100, RngStream(0))
        with pytest.raises(ValidationError):
            coupling_time_ladder(f, [0.0], [[0.1]], 1.0, grid, 1, RngStream(0))
        with pytest.raises(ValidationError):
            coupling_times(f, [0.0], [0.1], grid, RngStream(0), 10, couple_tol=-1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_divergence_reports_the_step(self, dim):
        # sigma = I and b(t, x) = 1e308 x: Z leaves 0.1 e_1 with a drift
        # step of about 1.6e305 and overflows on the second step
        eye = np.eye(dim)
        f = CoefficientField(
            dim=dim, a=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)),
            b=lambda t, x: 1e308 * x, c=lambda t, x: np.zeros(len(x)),
            lam=1.0, b_sup=np.inf, c_sup=0.0,
            sigma=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)))
        grid = TimeGrid(1.0, 64)
        x, z = np.zeros(dim), 0.1 * eye[0]
        tol = default_couple_tol(grid, f)
        drivers = {
            "tau": lambda: coupling_times(f, x, z, grid, RngStream(0), 4),
            "terminal": lambda: simulate_coupled_terminal(
                f, x, z, grid, RngStream(0), 0, 4, tol),
            "recorder": lambda: simulate_coupled(f, x, z, grid, RngStream(0)),
        }
        for name, run in drivers.items():
            with pytest.raises(SimulationDivergedError) as exc:
                with np.errstate(over="ignore", invalid="ignore"):
                    run()
            assert exc.value.step_index == 2, name

    @pytest.mark.parametrize("dim", [1, 2])
    def test_divergence_raises_without_a_warning(self, dim):
        # the field of test_divergence_reports_the_step, with overflow
        # warnings left as the suite sets them (errors): every driver and
        # recorder raises the divergence, none warns first
        eye = np.eye(dim)
        f = CoefficientField(
            dim=dim, a=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)),
            b=lambda t, x: 1e308 * x, c=lambda t, x: np.zeros(len(x)),
            lam=1.0, b_sup=np.inf, c_sup=0.0,
            sigma=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)))
        grid = TimeGrid(1.0, 64)
        x, z = np.zeros(dim), 0.1 * eye[0]
        drivers = {
            "tau": lambda: coupling_times(f, x, z, grid, RngStream(0), 4),
            "terminal": lambda: simulate_coupled_terminal(
                f, x, z, grid, RngStream(0), 0, 4, default_couple_tol(grid, f)),
            "recorder": lambda: simulate_coupled(f, x, z, grid, RngStream(0)),
            "path": lambda: simulate_path(f, z, grid, RngStream(0)),
        }
        for name, run in drivers.items():
            with pytest.raises(SimulationDivergedError) as exc:
                run()
            assert exc.value.step_index == 2, name

    @pytest.mark.parametrize("dim", [1, 2])
    def test_difference_divergence_reports_the_step(self, dim):
        # the field of test_divergence_reports_the_step has c = 0, so the
        # coupled difference steps only the unmet pairs; Z overflows on
        # the second step, before the pair meets
        eye = np.eye(dim)
        f = CoefficientField(
            dim=dim, a=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)),
            b=lambda t, x: 1e308 * x, c=lambda t, x: np.zeros(len(x)),
            lam=1.0, b_sup=np.inf, c_sup=0.0,
            sigma=lambda t, x: np.broadcast_to(eye, (len(x), dim, dim)))
        req = SolveRequest(field=f, terminal=make_constant_terminal(1.0),
                           eval_point=np.zeros(dim), n_paths=4, grid=TimeGrid(1.0, 64))
        with pytest.raises(SimulationDivergedError) as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                difference_ladder(req, [0.1 * eye[0]], RngStream(0))
        assert exc.value.step_index == 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_declared_scale_needs_no_solve(self, dim, monkeypatch):
        # the pair step of an isotropic constant field reads sigma_scalar
        # and reflects across xi / s: no linear system is solved
        f = make_constant_field(dim=dim, a0=2.0)
        assert f.sigma_scalar is not None
        grid = TimeGrid(1.0, 50)
        x, z = np.zeros(dim), 0.1 * np.eye(dim)[0]
        tol = default_couple_tol(grid, f)

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        coupling_times(f, x, z, grid, RngStream(0), 20)
        simulate_coupled_terminal(f, x, z, grid, RngStream(0), 0, 20, tol)
        simulate_coupled(f, x, z, grid, RngStream(0))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2**64 - 1),
           n=st.integers(1, 30), steps=st.integers(1, 80),
           a0=st.floats(0.05, 20.0), c0=st.sampled_from([0.0, 0.3]),
           d0=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
           tol_factor=st.sampled_from([0.0, 1.0, 10.0]))
    def test_declared_scale_matches_sigma_matrices(self, dim, seed, n, steps, a0,
                                                   c0, d0, tol_factor):
        # an isotropic constant field's pair step with the declared scale s
        # and the same field stepped through its sigma matrices s I (solve
        # and einsum) give the same bytes on every coupled driver
        f = make_constant_field(dim=dim, a0=a0, c0=c0)
        assume(f.sigma_scalar is not None)
        m = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, steps)
        tol = tol_factor * default_couple_tol(grid, f)
        x = np.full(dim, 0.2)
        z = x + d0 * np.linspace(1.0, 0.5, dim)

        def run(field):
            rng = RngStream(seed)
            out = [simulate_coupled_block(field, x, z, grid, rng, 0, n, tol)[0]]
            out += simulate_coupled_terminal(field, x, z, grid, rng, 0, n, tol)
            pair = simulate_coupled(field, x, z, grid, rng, couple_tol=tol,
                                    path_index=n)
            return out + [pair.path_x.states, pair.path_z.states]

        for a, b in zip(run(f), run(m), strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("a0", [1.0, 2.0])
    @pytest.mark.parametrize("declared", [True, False], ids=["scan", "step-loop"])
    def test_survival_curve_matches_exact_law(self, a0, declared, dim=1):
        # the empirical P(tau > t_k) of the block driver against the exact
        # law of the reflection-coupled Brownian pair at 20 nodes, inside a
        # Bonferroni-corrected binomial band of total level 1e-3.  With
        # couple_tol = 0 only the bridge test declares a meeting, which is
        # exact in law for constant sigma; the coarse grid makes the bridge
        # test carry most of the meetings (a bridge variance 10% off leaves
        # the band), and a0 = 2 checks the scaling d0 |sigma^-1 e|
        from scipy.stats import binom

        f = make_constant_field(dim=dim, a0=a0)
        if not declared:
            f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, 100)
        n, d0, alpha = 50_000, 0.2, 1e-3
        ks = np.arange(5, 101, 5)
        z = d0 * np.eye(dim)[0]
        taus = coupling_times(f, np.zeros(dim), z, grid, RngStream(13), n, couple_tol=0.0)
        alive = np.array([np.sum((taus < 0) | (taus > k)) for k in ks])
        p = bm_coupling_survival(d0 / np.sqrt(a0), ks * grid.dt)
        lo, hi = binom.interval(1.0 - alpha / len(ks), n, p)
        assert np.all((lo <= alive) & (alive <= hi)), (alive / n, p)

    @pytest.mark.parametrize("a0", [1.0, 2.0])
    @pytest.mark.parametrize("declared", [True, False], ids=["scale", "matrices"])
    def test_survival_curve_matches_exact_law_in_2d(self, a0, declared):
        # the same band for the projected bridge test of a 2D pair, with
        # the declared scale and with sigma as matrices
        self.test_survival_curve_matches_exact_law(a0, declared, dim=2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300),
           steps=st.integers(16, 400), a0=st.floats(0.05, 20.0),
           d0=st.sampled_from([0.0, 1e-3, 0.05, 0.2, 1.0]),
           tol_factor=st.sampled_from([0.0, 0.5, 1.0, 10.0]),
           stop=st.one_of(st.none(), st.integers(1, 400)),
           budget=st.sampled_from([None, 450, 5000]),
           tile=st.sampled_from([None, 64, 1000]),
           short_blocks=st.booleans())
    def test_scan_matches_step_loop(self, seed, n, steps, a0, d0, tol_factor,
                                    stop, budget, tile, short_blocks):
        # the constant-sigma scan and the per-node loop it replaces (the
        # same field without the declaration) give the same coupling steps;
        # a small budget, small row tiles and 16-step sub-blocks put hits
        # next to chunk, tile and sub-block boundaries
        f = make_constant_field(dim=1, a0=a0)
        assert f.sigma_scalar is not None
        loop_f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, steps)
        tol = tol_factor * default_couple_tol(grid, f)
        with mock.patch.object(sde_engine, "_CHUNK_BUDGET",
                               budget or sde_engine._CHUNK_BUDGET), \
                mock.patch.object(sde_engine, "_ROW_TILE",
                                  tile or sde_engine._ROW_TILE), \
                mock.patch.object(coupling, "_scan_steps",
                                  (lambda n_pairs: 16) if short_blocks
                                  else coupling._scan_steps):
            runs = [coupling_times(field, [0.3], [0.3 + d0], grid,
                                   RngStream(seed), n, couple_tol=tol,
                                   stop_step=stop)
                    for field in (f, loop_f)]
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_scan_divergence_matches_step_loop(self, bad, monkeypatch):
        # a non-finite increment stops both drivers at the same step while
        # its pair is uncoupled, and nowhere once the pair has met
        f = make_constant_field(dim=1)
        loop_f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, 300)
        taus = coupling_times(f, [0.0], [0.1], grid, RngStream(11), 40)
        # `early` meets at node t_e < 20; `late` is uncoupled at node 21
        early = int(np.flatnonzero((taus >= 2) & (taus < 20))[0])
        late = int(np.flatnonzero((taus < 0) | (taus > 21))[0])
        t_e = int(taus[early])
        inject = _spoil(monkeypatch, bad)

        def step_index(field):
            return _diverged_at(field, [0.0], [0.1], grid, RngStream(11), 40)

        # step t_e of `early` is drawn but never used: the pair has met
        inject.update({early: t_e, late: 20})
        assert step_index(f) == step_index(loop_f) == 21
        inject[early] = t_e - 1  # the step in which `early` meets
        assert step_index(f) == step_index(loop_f) == t_e
        del inject[late]
        inject[early] = t_e
        assert step_index(f) is None and step_index(loop_f) is None

    def test_scan_reports_the_earliest_divergence_of_any_tile(self, monkeypatch):
        # at this budget the scan draws its first chunk, steps [0, 64), in
        # tiles of 3 pairs; a later step diverges in the first tile and an
        # earlier one in a later tile: the earlier step is reported, as by
        # the step loop, which steps every pair at each node
        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 450)
        f = make_constant_field(dim=1)
        loop_f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, 300)
        args = ([0.0], [0.5], grid, RngStream(12), 40)
        taus = coupling_times(f, *args)
        unmet = np.flatnonzero((taus < 0) | (taus > 41))
        first, later = int(unmet[0]), int(unmet[unmet >= 6][-1])
        assert first < 3
        _spoil(monkeypatch, np.inf).update({first: 40, later: 30})
        assert _diverged_at(f, *args) == _diverged_at(loop_f, *args) == 31

    def test_every_1d_driver_meets_in_one_test(self):
        # the scan, the step loop, the terminal driver and the recorder all
        # decide a meeting in coupling._meets, so a test that always hits
        # couples every unmet pair in the first step, in each of them
        grid, tol, n = TimeGrid(1.0, 100), 1e-3, 10
        scan = make_constant_field(dim=1)
        loop = make_sin_field(dim=1, amp=0.4)
        starts = coupling.ladder_starts(1, [[0.3], [0.0]], n)  # rung 2 starts met

        def recorded():
            taus = [simulate_coupled(loop, [0.0], z, grid, RngStream(2), couple_tol=tol,
                                     path_index=p).tau_index for p, z in enumerate(starts)]
            return np.array([-1 if tau is None else tau for tau in taus])

        drivers = {
            "scan": lambda: coupling_times(scan, [0.0], starts, grid, RngStream(2),
                                           2 * n, couple_tol=tol),
            "step loop": lambda: coupling_times(loop, [0.0], starts, grid, RngStream(2),
                                                2 * n, couple_tol=tol),
            "terminal": lambda: simulate_coupled_terminal(loop, [0.0], starts, grid,
                                                          RngStream(2), 0, 2 * n, tol)[0],
            "recorder": recorded,
        }
        for name, run in drivers.items():
            with mock.patch.object(coupling, "_meets", side_effect=coupling._meets) as spy:
                run()
            assert spy.called, name
            # the scan keeps its probabilities in the spent increments
            assert (spy.call_args.kwargs.get("out") is not None) == (name == "scan"), name
            with mock.patch.object(coupling, "_meets",
                                   lambda a, b, *rest, **kw: np.ones(np.shape(b), bool)):
                taus = run()
            assert np.array_equal(taus, np.repeat([1, 0], n)), name

    @pytest.mark.parametrize("budget", [None, 450])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_step_loop_maps_only_the_steps_it_takes(self, dim, budget, mapped,
                                                    monkeypatch):
        # the block driver turns uniforms into increments only for the
        # pairs it steps: d normals per pair-step taken, none past a
        # pair's meeting step, in any chunk
        f = make_sin_field(dim=dim, amp=0.5)  # a sigma that is not declared
        grid = TimeGrid(1.0, 300)
        stop = 250
        if budget:
            monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", budget)
        taus = coupling_times(f, [0.0] * dim, [0.1] + [0.0] * (dim - 1), grid,
                              RngStream(17), 200, couple_tol=0.05, stop_step=stop)
        taken = int(np.where(taus >= 0, taus, stop).sum())
        assert 0 < np.sum(taus > 0) < taus.size
        assert sum(mapped) == dim * taken

    def test_scan_maps_at_most_one_sub_block_past_a_meeting(self, mapped,
                                                            monkeypatch):
        # the 1D scan maps a sub-block of steps for each survivor, so a
        # pair leaves unmapped every step after the sub-block it meets in
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 2000)
        stop = 1500
        monkeypatch.setattr(coupling, "_scan_steps", lambda n_pairs: 16)
        taus = coupling_times(f, [0.0], [0.1], grid, RngStream(17), 300,
                              stop_step=stop)
        taken = int(np.where(taus >= 0, taus, stop).sum())
        met = int(np.sum(taus > 0))
        assert 0 < met < taus.size
        assert taken <= sum(mapped) <= taken + 15 * met

    @pytest.mark.parametrize("dim", [1, 2])
    def test_survivor_loop_draws_into_one_buffer(self, dim, monkeypatch):
        # every chunk of the block driver, whatever its size, is drawn
        # into one buffer allocated once per call, with unchanged bytes
        f = make_constant_field(dim=dim)
        grid = TimeGrid(1.0, 300)
        x, z = [0.0] * dim, [0.3] + [0.0] * (dim - 1)
        default = coupling_times(f, x, z, grid, RngStream(5), 60)
        calls = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            calls.append((buf, len(paths) * (hi - lo) * d))
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 450)
        small = coupling_times(f, x, z, grid, RngStream(5), 60)
        assert np.array_equal(default, small)
        assert len({size for _, size in calls}) >= 3
        buf = calls[0][0]
        assert all(b is buf for b, _ in calls)
        assert max(size for _, size in calls) <= buf.size

    @pytest.mark.parametrize("field,z,n,tol", [
        (make_constant_field(dim=1), [0.1], 2000, None),
        (make_sin_field(dim=1, amp=0.5), [0.1], 400, None),
        (make_sin_field(dim=2, amp=0.5), [0.1, 0.0], 400, 0.05),
    ], ids=["scan-1d", "step-loop-1d", "step-loop-2d"])
    def test_survivor_loop_draws_little_past_the_meetings(self, field, z, n, tol,
                                                          monkeypatch):
        # a chunk from node k takes at most max(64, k) steps, so a pair
        # that meets at step tau was drawn up to step max(tau + 63, 2 tau)
        # at most, however many steps the draw budget would allow
        drawn = []
        uniforms = RngStream.uniforms

        def counted(self, paths, lo, hi, d, buf=None):
            drawn.append(len(paths) * (hi - lo) * d)
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", counted)
        grid = TimeGrid(1.0, 1000)
        d = field.dim
        taus = coupling_times(field, [0.0] * d, z, grid, RngStream(23), n,
                              couple_tol=tol)
        ends = np.where(taus >= 0, taus, grid.steps)
        assert np.median(ends) < 100
        per_pair = coupling._pair_layout(d)[0]
        bound = per_pair * np.minimum(grid.steps, np.maximum(ends + 64, 2 * ends)).sum()
        assert sum(drawn) <= bound

    @pytest.mark.parametrize("dim", [1, 2])
    def test_survivor_chunks_fit_a_budget_below_64_steps(self, dim, monkeypatch):
        # 64 steps of the 40 pairs need more doubles than the budget holds,
        # as for 1e5 pairs at the default budget.  The 1D scan keeps chunks
        # of the steps taken, from nodes 0, 64, 128, ..., and draws each in
        # row tiles within the budget; the step loop's chunks take half the
        # steps taken, at least 16, and never more than the budget holds.
        # Either way every draw fits the thread's kept buffer, with
        # unchanged bytes
        f = make_constant_field(dim=dim)
        grid = TimeGrid(1.0, 300)
        x, z = [0.0] * dim, [0.3] + [0.0] * (dim - 1)
        n, per_pair = 40, coupling._pair_layout(dim)[0]
        budget = 30 * per_pair * n
        assert 64 * per_pair * n > budget
        default = coupling_times(f, x, z, grid, RngStream(6), n, couple_tol=0.05)
        calls = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            calls.append((buf, len(paths) * (hi - lo) * d, lo, hi))
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", budget)
        small = coupling_times(f, x, z, grid, RngStream(6), n, couple_tol=0.05)
        assert np.array_equal(default, small)
        assert len(calls) >= 3
        buf = calls[0][0]
        assert buf is sde_engine._draw_buffer(0) and buf.size >= budget
        assert all(b is buf for b, *_ in calls)
        assert max(size for _, size, *_ in calls) <= budget
        chunks = {(lo, hi) for *_, lo, hi in calls}
        if dim == 1:
            assert (0, 64) in chunks and len(chunks) < len(calls)
            assert {lo for lo, _ in chunks} <= {0, 64, 128, 256}
        else:
            assert (0, 16) in chunks and len(chunks) == len(calls)

    @pytest.mark.parametrize("case", ["ladder-1d-sin", "budget-2d"])
    def test_survivor_chunks_start_on_counter_blocks(self, case, monkeypatch):
        # every survivor chunk but the last ends on a whole four-double
        # counter block, so no draw starts inside one: not in a 1D sin
        # ladder, whose chunks grow by half the steps taken (162 -> 243
        # unrounded), nor in a 2D batch whose chunks the budget bounds at
        # 17 steps
        firsts = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            firsts.append(lo * d)
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        if case == "ladder-1d-sin":
            coupling_time_ladder(make_sin_field(dim=1, amp=0.5), [0.0],
                                 [[0.2], [0.1], [0.05]], 1.0, TimeGrid(1.0, 1000),
                                 100, RngStream(31))
        else:
            n = 40
            monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 17 * 2 * n)
            coupling_times(make_constant_field(dim=2), [0.0, 0.0], [0.3, 0.0],
                           TimeGrid(1.0, 300), RngStream(8), n, couple_tol=0.05)
        assert len(firsts) >= 8
        assert not any(lo % 4 for lo in firsts)

    def test_ladder_draws_no_more_at_once_than_one_rung_did(self, monkeypatch):
        # a ladder runs its rungs in one batch, whose chunks from node k take
        # half the steps taken, at least 16: its largest draw stays within
        # the first chunk of one rung in a loop of its own with 64-step
        # chunks, so batching the rungs costs no draw memory
        drawn = []
        uniforms = RngStream.uniforms

        def counted(self, paths, lo, hi, d, buf=None):
            drawn.append(len(paths) * (hi - lo) * d)
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", counted)
        n, per_pair = 500, coupling._pair_layout(1)[0]
        tau_step, _ = coupling_time_ladder(make_sin_field(dim=1, amp=0.5), [0.1],
                                           [[0.3], [0.2], [0.15]], 1.0,
                                           TimeGrid(1.0, 1000), n, RngStream(41))
        assert min(frac for ((frac, _),) in rung_means(n, tau_step >= 0)) < 0.95
        assert drawn[0] == 3 * n * 16 * per_pair
        assert max(drawn) <= n * 64 * per_pair

    def test_ladder_reports_the_earliest_divergence_of_any_rung(self, monkeypatch):
        # a pair of the first rung diverges at step 41 and one of the last
        # at step 31: the ladder names step 31, in the scan and in the step
        # loop alike, not the step of the first rung to diverge
        grid, n, zs = TimeGrid(1.0, 300), 40, [[0.5], [0.3], [0.2]]
        scan = make_constant_field(dim=1)
        loop = dataclasses.replace(scan, sigma_scalar=None)
        taus = coupling_times(scan, [0.0], coupling.ladder_starts(1, zs, n), grid,
                              RngStream(12), 3 * n)
        late = np.flatnonzero((taus < 0) | (taus > 45))
        first, last = int(late[0]), int(late[-1])
        assert first < n <= 2 * n <= last
        _spoil(monkeypatch, np.inf).update({first: 40, last: 30})
        for f in (scan, loop):
            with pytest.raises(SimulationDivergedError) as exc:
                with np.errstate(over="ignore", invalid="ignore"):
                    coupling_time_ladder(f, [0.0], zs, 1.0, grid, n, RngStream(12))
            assert exc.value.step_index == 31

    def test_per_pair_starts(self):
        # each pair takes the start test on its own row, so a pair's
        # coupling step is that of a one-pair run at its path index; start
        # points must be one per pair
        f = make_constant_field(dim=2)
        grid = TimeGrid(1.0, 50)
        starts = coupling.ladder_starts(2, [[0.1, 0.0], [0.0, 0.0], [0.1, 0.0]], 5)
        taus = coupling_times(f, [0.0, 0.0], starts, grid, RngStream(3), 15,
                              couple_tol=0.05)
        assert np.all(taus[5:10] == 0) and np.all(taus[:5] != 0) and np.all(taus[10:] != 0)
        assert np.array_equal(taus[10:], coupling_times(f, [0.0, 0.0], [0.1, 0.0], grid,
                                                        RngStream(3), 5, couple_tol=0.05,
                                                        path_offset=10))
        with pytest.raises(ValidationError, match="shape"):
            coupling_times(f, [0.0, 0.0], starts[:14], grid, RngStream(3), 15)
        # all-different starts z_p = x + r_p e with r_p on both sides of
        # the tolerance: a pair starts met exactly where its own norm is
        # within it
        r = 0.05 * np.array([0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 0.99, 1.01])
        for dim in (1, 2):
            f = make_constant_field(dim=dim)
            x = np.array([0.3, -0.2][:dim])
            zs = x + r[:, None] * np.ones(dim) / np.sqrt(dim)
            taus = coupling_times(f, x, zs, grid, RngStream(3), len(zs), couple_tol=0.05)
            met = [np.linalg.norm(x - z) <= 0.05 for z in zs]
            assert any(met) and not all(met)
            assert np.array_equal(taus == 0, met), dim
            for p, z in enumerate(zs):
                assert taus[p] == coupling_times(f, x, z, grid, RngStream(3), 1,
                                                 couple_tol=0.05, path_offset=p)[0], (dim, p)

    def test_scan_draws_many_pairs_in_tiles_of_the_kept_buffer(self):
        # 16 steps of these pairs need more doubles than the budget holds;
        # the scan still draws no more than a row tile at a time, into the
        # thread's kept buffer, however many pairs survive
        n = sde_engine._CHUNK_BUDGET // 32 + 1000
        calls = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            calls.append((buf, len(paths) * (hi - lo) * d))
            return uniforms(self, paths, lo, hi, d, buf)

        with mock.patch.object(RngStream, "uniforms", logged):
            coupling_times(make_constant_field(dim=1), [0.0], [0.1],
                           TimeGrid(1.0, 40), RngStream(3), n)
        kept = sde_engine._draw_buffer(0)
        assert len(calls) > 1 and all(b is kept for b, _ in calls)
        assert max(size for _, size in calls) <= sde_engine._ROW_TILE

    def test_draw_buffer_is_kept_per_thread(self):
        # up to the budget a thread's buffer grows to its largest request
        # and every call of the thread gets it; a request above the budget
        # gets a fresh array; each thread keeps its own
        budget = sde_engine._CHUNK_BUDGET

        def requests():
            # one after another, as a thread's driver calls make them
            return [sde_engine._draw_buffer(n)
                    for n in (10, 5, 1000, 10, budget, budget + 1, 1000)]

        bufs = []
        for _ in range(2):
            t = threading.Thread(target=lambda: bufs.append(requests()))
            t.start()
            t.join()
        for first, small, grown, kept, full, above, after in bufs:
            assert first.size == 10 and small is first
            assert grown.size == 1000 and kept is grown
            assert full.size == budget and full is not grown
            assert above.size == budget + 1 and above is not full and after is full
        assert not set(map(id, bufs[0])) & set(map(id, bufs[1]))

    @pytest.mark.parametrize("x,z", [([0.0], [0.1]), ([0.0, 0.0], [0.1]),
                                     ([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])],
                             ids=["short-points", "short-z", "long-points"])
    def test_points_must_fit_the_field(self, x, z):
        # a point of another length than field.dim is not broadcast, by
        # the coupling drivers or the single-leg ones (z never fits)
        f = make_constant_field(dim=2)
        grid = TimeGrid(1.0, 20)
        solve = SolveRequest(field=f, terminal=make_constant_terminal(1.0),
                             eval_point=z, n_paths=4, grid=grid)
        drivers = {
            "tau": lambda: coupling_times(f, x, z, grid, RngStream(0), 4),
            "terminal": lambda: simulate_coupled_terminal(
                f, x, z, grid, RngStream(0), 0, 4, 0.01),
            "recorder": lambda: simulate_coupled(f, x, z, grid, RngStream(0)),
            "solve": lambda: solve_u(solve, RngStream(0)),
            "path": lambda: simulate_path(f, z, grid, RngStream(0)),
        }
        for name, run in drivers.items():
            with pytest.raises(ValidationError, match="2 entries"):
                run()

    def test_default_tolerance_formula(self):
        f = make_constant_field(dim=1, a0=4.0)
        grid = TimeGrid(1.0, 100)
        assert default_couple_tol(grid, f) == pytest.approx(
            np.sqrt(0.01) / np.sqrt(4.0) / 10.0)


class TestLyapunov:
    def test_zero_modulus_is_identity(self):
        params = LyapunovParams(gamma=2.0, rho=ZERO_MODULUS)
        assert lyapunov_f(params, 1.7) == 1.7
        assert lyapunov_f(params, 0.0) == 0.0

    def test_power_half_against_riemann(self):
        # rho(r) = sqrt(r), gamma = 1: inner integral is 2 * 2 sqrt(s),
        # so f(eta) = Integral_0^eta exp(-4 sqrt(s)) ds
        rho = ModulusOfContinuity("power", scale=1.0, alpha=0.5)
        params = LyapunovParams(gamma=1.0, rho=rho)
        s = (np.arange(200_000) + 0.5) * (0.8 / 200_000)
        riemann = np.mean(np.exp(-4.0 * np.sqrt(s))) * 0.8
        assert lyapunov_f(params, 0.8) == pytest.approx(riemann, rel=1e-6)

    def test_concave_increasing(self):
        rho = ModulusOfContinuity("power", scale=1.0, alpha=1.0)
        params = LyapunovParams(gamma=1.5, rho=rho)
        etas = np.linspace(0.0, 2.0, 21)
        vals = np.array([lyapunov_f(params, e) for e in etas])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 1e-12)

    def test_non_dini_modulus_rejected(self):
        rho = ModulusOfContinuity("log_power", scale=1.0, alpha=0.5)
        with pytest.raises(DiniDivergenceError):
            lyapunov_f(LyapunovParams(gamma=1.0, rho=rho), 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LyapunovParams(gamma=0.0, rho=ZERO_MODULUS)
        with pytest.raises(ValidationError):
            lyapunov_f(LyapunovParams(gamma=1.0, rho=ZERO_MODULUS), -1.0)


# every built-in field whose sigma is declared as a scale, with the
# dimensions it supports
SCALE_FIELDS = {"sin": (1, 2, 3), "power-modulus": (1, 2, 3),
                "log-modulus": (1, 2, 3), "sgn-drift": (1,)}
SCALE_PARAMS = {"sin": {"c0": 0.2}, "log-modulus": {"alpha": 0.5}}


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([(name, d) for name, dims in sorted(SCALE_FIELDS.items())
                             for d in dims]),
       seed=st.integers(0, 2**64 - 1), n=st.integers(1, 30),
       steps=st.integers(1, 60), x0=st.floats(-1.0, 1.0),
       d0=st.floats(0.0, 0.5), tol_factor=st.sampled_from([0.0, 1.0, 10.0]))
def test_scale_sigma_matches_matrix_sigma(case, seed, n, steps, x0, d0, tol_factor):
    # sigma declared as the scale s (n,) and the same field with sigma given
    # as the matrices s I drive every simulation to the same bytes: s dW is
    # the matrix product, and xi / s the solve the pair step reflects with
    name, dim = case
    params = {"dim": dim, **SCALE_PARAMS.get(name, {})} if name != "sgn-drift" else {}
    f = build_field(name, params)
    assert f.sigma(0.0, np.zeros((3, dim))).shape == (3,)
    eye = np.eye(dim)
    m = dataclasses.replace(f, sigma=lambda t, x: f.sigma(t, x)[:, None, None] * eye)
    grid = TimeGrid(1.0, steps)
    tol = tol_factor * default_couple_tol(grid, f)
    x = np.full(dim, x0)
    z = x + d0 * np.linspace(1.0, 0.5, dim)

    def run(field):
        rng = RngStream(seed)
        out = list(simulate_terminal(field, x, grid, rng, 0, n))
        out.append(simulate_coupled_block(field, x, z, grid, rng, 0, n, tol)[0])
        out += simulate_coupled_terminal(field, x, z, grid, rng, 0, n, tol)
        pair = simulate_coupled(field, x, z, grid, rng, couple_tol=tol,
                                path_index=n)
        return out + [pair.path_x.states, pair.path_z.states,
                      pair.path_x.weight_log, pair.path_z.weight_log,
                      np.array([pair.tau_time])]

    for a, b in zip(run(f), run(m), strict=True):
        assert a.tobytes() == b.tobytes()
