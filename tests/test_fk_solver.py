from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from couplemc import (ExperimentConfig, ResultTable, RngStream, SolveRequest,
                      TimeGrid, coupling, expected_regime, fk_solver,
                      fit_result_table, mean_stderr, sde_engine,
                      difference_ladder, solve_u, validate_config)
from couplemc.cli import _run_modulus
from couplemc.coefficients import ModulusOfContinuity
from couplemc.coupling import simulate_coupled_terminal
from couplemc.errors import ValidationError
from couplemc.registry import (build_field, make_constant_field, make_constant_terminal,
                               make_gaussian_bump, make_log_modulus_field,
                               make_power_modulus_field, make_sin_field)
from couplemc.sde_engine import simulate_terminal


def _modulus_config(seed, field_name, field_params, base_point, ladder, horizon, steps,
                    n_paths, couple_tol=None):
    """A 1D modulus run along e_1 with the Gaussian bump terminal at 0 of
    width 1."""
    return ExperimentConfig(
        kind="modulus", seed=seed, field_name=field_name, field_params=field_params,
        terminal_name="gaussian-bump", terminal_params={"center": 0.0, "width": 1.0},
        base_point=(base_point,), direction=(1.0,), ladder=ladder, horizon=horizon,
        steps=steps, n_paths=n_paths, couple_tol=couple_tol)


def _request(field, terminal, n_paths=64, steps=64, point=None):
    x = np.zeros(field.dim) if point is None else np.asarray(point, float)
    return SolveRequest(field=field, terminal=terminal, eval_point=x,
                        n_paths=n_paths, grid=TimeGrid(1.0, steps))


class TestSolve:
    def test_constant_terminal_with_potential(self):
        # f == 1 and c == kappa make the estimate exactly exp(kappa T)
        f = make_constant_field(dim=1, c0=0.25)
        req = _request(f, make_constant_terminal(1.0), n_paths=16, steps=64)
        est, se = solve_u(req, RngStream(0))
        assert est == pytest.approx(np.exp(0.25), rel=1e-13)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_closed_form_small(self):
        f = make_constant_field(dim=1)
        req = _request(f, make_gaussian_bump(0.0, 1.0), n_paths=40_000, steps=50)
        est, se = solve_u(req, RngStream(1))
        assert abs(est - 1.0 / np.sqrt(2.0)) <= 4.0 * se

    def test_worker_count_invariance(self):
        # the estimate reduces per-path values that depend on the path
        # index only: simulating [0, n) in two blocks gives the same bytes
        f = make_sin_field(dim=1, amp=0.3)
        req = _request(f, make_gaussian_bump(0.0, 1.0), n_paths=500, steps=30)
        rng = RngStream(2)
        parts = []
        for lo, hi in ((0, 187), (187, 500)):
            X, w = simulate_terminal(f, req.eval_point, req.grid, rng, lo, hi)
            parts.append(req.terminal(X) * np.exp(w))
        assert solve_u(req, rng) == mean_stderr(np.concatenate(parts))

    @pytest.mark.parametrize("field,tilings", [
        # a scan takes any tile and draws it in sub-tiles of whole
        # horizons in _SUB_TILE doubles, or of one row whose horizon is
        # drawn in chunks: 7-step chunks at _SUB_TILE = 7, 450-step ones
        # (the whole horizon) at _CHUNK_BUDGET = 450
        (make_constant_field(dim=1),
         [({}, [2500]), ({"_DEFAULT_BLOCK": 2048}, [2048, 452]),
          ({"_DEFAULT_BLOCK": 1000}, [1000, 1000, 500]),
          ({"_DEFAULT_BLOCK": 7}, [7] * 357 + [1]),
          ({"_SUB_TILE": 40 * 7}, [2500]), ({"_SUB_TILE": 7}, [2500]),
          ({"_CHUNK_BUDGET": 450}, [2500])]),
        # the step loop keeps the fixed block when the budget holds fewer
        # than 2048 paths' horizons, drawn in chunks of 24 or 16 steps
        (make_sin_field(dim=1, amp=0.3),
         [({}, [2500]), ({"_CHUNK_BUDGET": 40 * 2048}, [2048, 452]),
          ({"_CHUNK_BUDGET": 40 * 1500}, [2500]),
          ({"_CHUNK_BUDGET": 450}, [2500])]),
    ], ids=["scan", "step-loop"])
    def test_tile_size_leaves_estimate_unchanged(self, field, tilings, monkeypatch):
        # one tile of every path, smaller tiles and chunked tiles give
        # the same bytes
        req = _request(field, make_gaussian_bump(0.0, 1.0), n_paths=2500,
                       steps=40)
        tiles = []
        simulate = fk_solver.simulate_terminal

        def logged(f, x0, grid, rng, lo, hi):
            tiles.append(hi - lo)
            return simulate(f, x0, grid, rng, lo, hi)

        monkeypatch.setattr(fk_solver, "simulate_terminal", logged)
        results = []
        for patched, expected in tilings:
            tiles.clear()
            with monkeypatch.context() as m:
                for name, value in patched.items():
                    m.setattr(sde_engine, name, value)
                results.append(solve_u(req, RngStream(9)))
            assert tiles == expected
        assert len({np.array(r).tobytes() for r in results}) == 1

    def test_request_validation(self):
        f = make_constant_field(dim=1)
        with pytest.raises(ValidationError):
            _request(f, make_constant_terminal(1.0), n_paths=1)


class TestCoupledDifference:
    def test_identical_points_give_zero(self):
        f = make_sin_field(dim=1, amp=0.3)
        req = _request(f, make_gaussian_bump(0.0, 1.0), n_paths=200, steps=40)
        diffs, taus = difference_ladder(req, [req.eval_point], RngStream(3))
        assert mean_stderr(diffs) == (0.0, 0.0)
        assert np.all(diffs == 0.0)
        assert np.all(taus == 0.0)

    def test_variance_beats_independent_differences(self):
        f = make_sin_field(dim=1, amp=0.5)
        term = make_gaussian_bump(0.0, 1.0)
        req = _request(f, term, n_paths=4000, steps=200, point=[1.0])
        _, se_c = mean_stderr(difference_ladder(req, [np.array([1.05])], RngStream(4))[0])
        _, se_a = solve_u(req, RngStream(5))
        req2 = _request(f, term, n_paths=4000, steps=200, point=[1.05])
        _, se_b = solve_u(req2, RngStream(5), path_offset=4000)
        assert se_c < np.hypot(se_a, se_b)


# fields with c = 0 and the dimensions they support; "constant" takes a
# drawn scalar a0 (a declared scale), "anisotropic" a full matrix
ZERO_C_FIELDS = [(name, d) for name in ("sin", "power-modulus", "log-modulus",
                                        "constant") for d in (1, 2, 3)]
ZERO_C_FIELDS += [("anisotropic", 2), ("anisotropic", 3)]


def _zero_c_field(name, dim, a0):
    if name == "constant":
        return make_constant_field(dim=dim, a0=a0)
    if name == "anisotropic":
        A = np.diag(np.linspace(a0, 1.0, dim))
        A[0, 1] = A[1, 0] = 0.2
        return make_constant_field(dim=dim, a0=A)
    return build_field(name, {"dim": dim, **({"alpha": 0.5} if name == "log-modulus" else {})})


class TestZeroPotentialDifference:
    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(ZERO_C_FIELDS), seed=st.integers(0, 2**64 - 1),
           n=st.integers(2, 40), steps=st.integers(1, 80),
           offset=st.sampled_from([0, 7, 2**40]), a0=st.floats(0.5, 4.0),
           x0=st.floats(-1.0, 1.0), d0=st.sampled_from([0.0, 1e-3, 0.05, 0.3]),
           tol_factor=st.sampled_from([0.0, 1.0, 10.0]),
           budget=st.sampled_from([None, 450]))
    def test_matches_terminal_driver(self, case, seed, n, steps, offset, a0, x0,
                                     d0, tol_factor, budget):
        # with c = 0 only the unmet pairs are stepped; the per-pair
        # differences and capped taus are the bytes of the terminal driver's
        # f(X) exp(wx) - f(Z) exp(wz), the estimator used for every field
        # before, applied to the same pairs
        name, dim = case
        f = _zero_c_field(name, dim, a0)
        assert f.c_sup == 0.0
        term = make_gaussian_bump(0.3, 0.8)
        grid = TimeGrid(1.0, steps)
        tol = tol_factor * coupling.default_couple_tol(grid, f)
        x = np.full(dim, x0)
        z = x + d0 * np.linspace(1.0, 0.5, dim)
        req = SolveRequest(field=f, terminal=term, eval_point=x, n_paths=n, grid=grid)
        with mock.patch.object(sde_engine, "_CHUNK_BUDGET",
                               budget or sde_engine._CHUNK_BUDGET):
            diffs, taus = difference_ladder(
                req, [z], RngStream(seed), couple_tol=tol, path_offset=offset)
            tau, X, wx, Z, wz = simulate_coupled_terminal(
                f, x, z, grid, RngStream(seed), offset, offset + n, tol)
        diff = term(X) * np.exp(wx) - term(Z) * np.exp(wz)
        capped = np.where(tau >= 0, np.minimum(tau * grid.dt, grid.horizon),
                          grid.horizon)
        assert diffs.tobytes() == diff.tobytes()
        assert taus.tobytes() == capped.tobytes()

    @pytest.mark.parametrize("c0", [0.0, 0.2])
    def test_met_legs_are_not_stepped(self, c0, monkeypatch):
        # with c = 0 a leg is updated only while its pair is unmet: two leg
        # updates per unmet pair-step; with c > 0 every X leg runs to the
        # horizon
        f = make_sin_field(dim=1, amp=0.4, c0=c0)
        req = _request(f, make_gaussian_bump(0.0, 1.0), n_paths=300, steps=100)
        rows = []
        update = sde_engine.euler_update

        def counted(field, t, dt, X, sig, dW):
            rows.append(len(X))
            return update(field, t, dt, X, sig, dW)

        for mod in (sde_engine, coupling):
            monkeypatch.setattr(mod, "euler_update", counted)
        _, taus = difference_ladder(req, [np.array([0.05])], RngStream(3))
        unmet_steps = int(np.round(taus / req.grid.dt).sum())
        assert 0 < unmet_steps < 300 * 100
        if c0 == 0.0:
            assert sum(rows) == 2 * unmet_steps
        else:
            assert sum(rows) == 300 * 100 + 2 * unmet_steps


class TestResultTable:
    def test_csv_shortest_roundtrip(self):
        t = ResultTable(columns=["a", "b"], rows=[(0.1, 3), (1.0 / 3.0, True)])
        text = t.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "0.1,3"
        assert lines[2] == "0.3333333333333333,true"
        assert float(lines[2].split(",")[0]) == 1.0 / 3.0

    def test_write_and_column(self, tmp_path):
        t = ResultTable(columns=["x"], rows=[(1.5,), (2.5,)])
        p = tmp_path / "out.csv"
        t.write_csv(p)
        assert p.read_text() == "x\n1.5\n2.5\n"
        assert np.array_equal(t.column("x"), [1.5, 2.5])


class TestRegimes:
    def test_expected_regime(self):
        assert expected_regime(make_constant_field(dim=1)) == "lipschitz"
        assert expected_regime(make_power_modulus_field(alpha=0.5)) == "lipschitz"
        assert expected_regime(make_log_modulus_field(alpha=2.0)) == "lipschitz"
        assert expected_regime(make_log_modulus_field(alpha=0.5)) == "holder"

    # a modulus config but its ladder, for the ladder rule of validate_config
    _RAW = {"kind": "modulus", "seed": 0, "field.name": "sin", "field.dim": 1,
            "terminal.name": "gaussian-bump", "terminal.width": 1.0, "base_point": 0.0,
            "direction": 1.0, "grid.horizon": 1.0, "grid.steps": 10, "n_paths": 100}

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            validate_config({**self._RAW, "ladder": [0.1, 0.2]})
        validate_config({**self._RAW, "ladder": [0.2, 0.1]})

    @pytest.mark.parametrize("distances", [(np.nan,), (np.inf, 0.1), (0.2, np.nan)],
                             ids=["nan", "inf-first", "nan-last"])
    def test_distances_must_be_finite(self, distances):
        with pytest.raises(ValidationError, match="ladder"):
            validate_config({**self._RAW, "ladder": list(distances)})

    @pytest.mark.parametrize("key,value", [
        ("base_point", [np.nan]), ("base_point", [np.inf]),
        ("direction", [0.0]), ("direction", [np.inf]), ("direction", [np.nan]),
        ("direction", [1e308, 1e308]), ("direction", [1.0]),
        ("base_point", [0.0]), ("base_point", [0.0, 0.0, 0.0])],
        ids=["nan-point", "inf-point", "zero-direction", "inf-direction",
             "nan-direction", "overflowing-direction", "short-direction",
             "short-point", "long-point"])
    def test_placement_validation(self, key, value):
        # a point or direction that does not fit the 2D field is rejected
        # before any draw, not broadcast or reported as diverged; a finite
        # direction whose length overflows is accepted as a direction
        kw = dict(base_point=np.zeros(2), direction=np.array([1.0, 0.0]))
        kw[key] = np.array(value)
        if value == [1e308, 1e308]:
            _, e = fk_solver.placement(kw["base_point"], kw["direction"], 2)
            assert np.allclose(e, np.sqrt(0.5), rtol=0, atol=1e-15)
            return
        with pytest.raises(ValidationError, match=key):
            fk_solver.placement(kw["base_point"], kw["direction"], 2)


def test_placement_returns_the_point_and_unit_direction():
    x, e = fk_solver.placement([1.0, 2.0], [3.0, 4.0], 2)
    assert x.tolist() == [1.0, 2.0] and e.tolist() == [0.6, 0.8]
    # a direction whose length underflows or overflows, though each entry
    # is finite and some nonzero, still gives |e| = 1
    for direction, unit in [((3e-162, 4e-162), (0.6, 0.8)), ((1e-200, 0.0), (1.0, 0.0)),
                            ((1e200, 1e200), (np.sqrt(0.5), np.sqrt(0.5)))]:
        _, e = fk_solver.placement([0.0, 0.0], direction, 2)
        assert np.allclose(e, unit, rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-15


class TestModulusExperiment:
    def test_table_schema_and_fits(self):
        cfg = _modulus_config(6, "sin", {"dim": 1, "amp": 0.4}, 1.0, (0.4, 0.2, 0.1),
                              0.5, 100, 3000)
        table, fits = _run_modulus(cfg)
        assert table.columns == ["distance", "delta_u", "stderr_u", "tau_mean",
                                 "stderr_tau", "n_paths", "dt", "couple_tol"]
        assert len(table.rows) == 3
        assert fits["regime_expected"] == "lipschitz"
        assert "delta_u_power_fit" in fits
        assert "tau_power_fit" in fits

    @pytest.mark.parametrize("tol", [-1.0, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # every entry resolves couple_tol in one place: a negative or
        # non-finite tolerance is an error, not a value in the table
        f = make_sin_field(dim=1, amp=0.4)
        term = make_gaussian_bump(0.0, 1.0)
        grid = TimeGrid(0.5, 10)
        cfg = _modulus_config(0, "sin", {"dim": 1, "amp": 0.4}, 0.0, (0.2, 0.1), 0.5, 10,
                              10, couple_tol=tol)
        req = _request(f, term, n_paths=10, steps=10)
        runs = {
            "modulus": lambda: _run_modulus(cfg),
            "difference": lambda: difference_ladder(
                req, [[0.1]], RngStream(0), couple_tol=tol),
            "tau": lambda: coupling.coupling_times(
                f, [0.0], [0.1], grid, RngStream(0), 10, couple_tol=tol),
            "recorder": lambda: coupling.simulate_coupled(
                f, [0.0], [0.1], grid, RngStream(0), couple_tol=tol),
        }
        for name, run in runs.items():
            with pytest.raises(ValidationError, match="couple_tol"):
                run()

    def test_fit_tolerates_zero_rows(self):
        table = ResultTable(
            columns=["distance", "delta_u", "stderr_u", "tau_mean",
                     "stderr_tau", "n_paths", "dt", "couple_tol"],
            rows=[(0.4, 0.0, 0.0, 0.2, 0.0, 10, 0.01, 0.001),
                  (0.2, 0.1, 0.0, 0.1, 0.0, 10, 0.01, 0.001),
                  (0.1, 0.05, 0.0, 0.05, 0.0, 10, 0.01, 0.001),
                  (0.05, 0.025, 0.0, 0.025, 0.0, 10, 0.01, 0.001)])
        fits = fit_result_table(table)
        assert fits["delta_u_power_fit"]["n_points"] == 3
        assert fits["tau_power_fit"]["n_points"] == 4


def test_modulus_for_rough_field():
    rho = ModulusOfContinuity("power", scale=0.5, alpha=0.5)
    f = make_power_modulus_field(height=0.5, alpha=0.5)
    assert f.modulus.alpha == rho.alpha
    cfg = _modulus_config(7, "power-modulus", {"height": 0.5, "alpha": 0.5}, 0.5,
                          (0.4, 0.2, 0.1), 0.5, 80, 1500)
    table, _ = _run_modulus(cfg)
    assert all(row[1] >= 0.0 for row in table.rows)
