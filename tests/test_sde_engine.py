import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox

from couplemc import (RngStream, SolveRequest, TimeGrid, coupling, coupling_times,
                      difference_ladder, mean_stderr, run_path_blocks, rung_means,
                      sde_engine, solve_u)
from couplemc.errors import SimulationDivergedError, ValidationError
from couplemc.registry import (make_constant_field, make_constant_terminal,
                               make_gaussian_bump, make_sin_field)
from couplemc.sde_engine import (path_tile, simulate_brownian_running_max,
                                 simulate_path, simulate_terminal, to_increments)


class TestRngStream:
    def test_split_draws_match_full_draws(self):
        rng = RngStream(7)
        for dim in (1, 2, 3):
            full = rng.uniforms([4], 0, 20, dim)[0]
            head = rng.uniforms([4], 0, 11, dim)[0]
            tail = rng.uniforms([4], 11, 20, dim)[0]
            assert np.array_equal(np.concatenate([head, tail]), full)

    def test_pure_function_of_seed_and_path(self):
        a = RngStream(99).uniforms([0, 1, 5], 3, 9, 2)
        b = RngStream(99).uniforms([0, 1, 5], 3, 9, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])
        c = RngStream(100).uniforms([0], 3, 9, 2)
        assert not np.array_equal(a[0], c[0])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           paths=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
           dim=st.integers(1, 3),
           lo=st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
           split=st.integers(0, 30), rest=st.integers(0, 30))
    def test_stream_is_addressed_by_counter(self, seed, paths, dim, lo, split, rest):
        """Any split of [lo, hi) into calls gives the same draws, and they
        are the doubles of the (seed, p) Philox stream from position lo*dim."""
        m, hi = lo + split, lo + split + rest
        rng = RngStream(seed)
        full = rng.uniforms(paths, lo, hi, dim)
        parts = [rng.uniforms(paths, lo, m, dim), rng.uniforms(paths, m, hi, dim)]
        assert np.array_equal(full, np.concatenate(parts, axis=1))
        blocks, rem = divmod(lo * dim, 4)
        for row, p in zip(full, paths):
            key = np.array([seed, p], dtype=np.uint64)
            ref = Generator(Philox(key=key, counter=blocks)).random(rem + (hi - lo) * dim)
            assert np.array_equal(row.ravel(), ref[rem:])

    def test_draws_into_a_buffer(self):
        # with buf the draws fill its leading entries and equal fresh ones
        rng = RngStream(3)
        buf = np.full(100, -1.0)
        u = rng.uniforms([2, 9], 5, 17, 3, buf)
        assert np.shares_memory(u, buf) and np.all(buf[72:] == -1.0)
        assert np.array_equal(u, rng.uniforms([2, 9], 5, 17, 3))
        with pytest.raises(ValueError):
            rng.uniforms([2, 9], 5, 17, 3, buf[:71])

    def test_normals_distribution(self):
        z = to_increments(RngStream(1).uniforms(np.arange(200), 0, 50, 1), 1.0).ravel()
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.02

    def test_top_uniform_gives_a_finite_normal(self, monkeypatch):
        # the shift into (0, 1) rounds the largest uniform, 1 - 2^-53, up
        # to 1.0 unless it is clamped, and ndtri(1.0) = inf would read as
        # a divergence; every driver's draws map it to a finite normal
        top = 1.0 - 2.0**-53
        monkeypatch.setattr(RngStream, "uniforms", lambda self, paths, lo, hi, d, buf=None:
                            np.full((len(paths), hi - lo, d), top))
        rng = RngStream(0)
        assert np.isfinite(to_increments(rng.uniforms([0, 1], 0, 4, 2), 0.01)).all()
        grid = TimeGrid(1.0, 4)
        f = make_constant_field(dim=1)
        assert np.isfinite(simulate_terminal(f, [0.0], grid, rng, 0, 2)[0]).all()
        assert np.isfinite(simulate_path(f, [0.0], grid, rng).states).all()
        _, *legs = coupling.simulate_coupled_terminal(f, [0.0], [0.5], grid, rng,
                                                      0, 2, 0.01)
        assert all(np.isfinite(leg).all() for leg in legs)
        pair = coupling.simulate_coupled(f, [0.0], [0.5], grid, rng)
        assert np.isfinite(pair.path_z.states).all()
        assert np.isfinite(simulate_brownian_running_max(1.0, 2, 4, rng)).all()
        # the block driver maps the uniforms of the pairs it steps itself:
        # in the 1D scan, in the step loop and in the c = 0 difference
        for field, x, z in [(f, [0.0], [0.5]),
                            (dataclasses.replace(f, sigma_scalar=None), [0.0], [0.5]),
                            (make_constant_field(dim=2), [0.0, 0.0], [0.5, 0.0])]:
            coupling_times(field, x, z, grid, rng, 2)
        req = SolveRequest(field=make_sin_field(dim=1), terminal=make_constant_terminal(),
                           eval_point=[0.0], n_paths=2, grid=grid)
        difference_ladder(req, [[0.5]], rng)


    @pytest.mark.parametrize("seed", [-1, 2**64, True, False, 1.7, 1.0, "1", None])
    def test_rejects_seeds_outside_the_key(self, seed):
        # a seed is an integer in [0, 2^64), as in a config: -1 read the
        # stream of 2^64 - 1, and True and 1.7 read seed 1
        with pytest.raises(ValidationError, match="seed"):
            RngStream(seed)

    def test_accepts_numpy_integer_seeds(self):
        top = RngStream(np.uint64(2**64 - 1))
        assert type(top.seed) is int
        assert np.array_equal(top.uniforms([3], 0, 4, 1),
                              RngStream(2**64 - 1).uniforms([3], 0, 4, 1))
        assert RngStream(np.int64(5)).seed == 5


SIN = make_sin_field(dim=1, amp=0.5)
GRID8 = TimeGrid(1.0, 8)
SOLVE8 = SolveRequest(field=SIN, terminal=make_gaussian_bump(0.0, 1.0),
                      eval_point=np.zeros(1), n_paths=4, grid=GRID8)


class TestPathIndices:
    @pytest.mark.parametrize("run", [
        lambda r: simulate_terminal(SIN, [0.0], GRID8, r, -3, 5),
        lambda r: simulate_terminal(SIN, [0.0], GRID8, r, 2**64 - 1, 2**64 + 1),
        lambda r: simulate_path(SIN, [0.0], GRID8, r, path_index=-1),
        lambda r: simulate_brownian_running_max(1.0, 4, 8, r, path_offset=-1),
        lambda r: solve_u(SOLVE8, r, path_offset=-1),
        lambda r: coupling_times(SIN, [0.0], [0.1], GRID8, r, 4, path_offset=-2),
        lambda r: coupling.simulate_coupled_terminal(SIN, [0.0], [0.1], GRID8, r,
                                                     -2, 2, 0.01),
        lambda r: coupling.simulate_coupled(SIN, [0.0], [0.1], GRID8, r, path_index=-1),
        lambda r: simulate_terminal(SIN, [0.0], GRID8, r, 0, 2.5),
        lambda r: simulate_terminal(SIN, [0.0], GRID8, r, False, 2),
        lambda r: coupling.simulate_coupled_terminal(SIN, [0.0], [0.1], GRID8, r,
                                                     0, 2.5, 0.01),
    ], ids=["terminal", "terminal-past-2^64", "path", "running-max", "solve",
            "coupling-times", "pairs", "pair", "terminal-float-hi", "terminal-bool-lo",
            "pairs-float-hi"])
    def test_rejects_path_indices_outside_the_key(self, run):
        # a negative offset reached np.arange(..., dtype=np.uint64) and
        # died with NumPy's OverflowError; a float bound ran rounded-up
        # paths or died with a TypeError
        with pytest.raises(ValidationError, match="path indices"):
            run(RngStream(1))

    @pytest.mark.parametrize("run", [
        lambda r: coupling_times(SIN, [0.0], [0.1], GRID8, r, 4, stop_step=-5),
        lambda r: coupling_times(SIN, [0.0], [0.1], GRID8, r, 4, stop_step=2.5),
        lambda r: coupling.coupling_time_ladder(SIN, [0.0], [[0.1]], 1.0, GRID8, 2.5, r),
    ], ids=["negative-stop-step", "float-stop-step", "ladder-float-n-paths"])
    def test_rejects_counts_that_are_not_integers(self, run):
        # a negative stop read as all pairs unmet; a float stop died with
        # a TypeError, and a float ladder size ran its floor
        with pytest.raises(ValidationError, match="must be an integer"):
            run(RngStream(1))

    def test_path_range_reaches_the_last_key(self):
        paths = sde_engine.path_range(2**64 - 2, 2**64)
        assert paths.dtype == np.uint64 and paths.tolist() == [2**64 - 2, 2**64 - 1]
        assert sde_engine.path_range(5, 5).size == 0


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(horizon=2.0, steps=4)
        assert g.dt == 0.5

    def test_rejects_bad(self):
        with pytest.raises(ValidationError):
            TimeGrid(horizon=0.0, steps=10)
        with pytest.raises(ValidationError):
            TimeGrid(horizon=1.0, steps=0)

    @pytest.mark.parametrize("steps", [2.5, 4.0, True, "4"])
    def test_rejects_steps_that_are_not_integers(self, steps):
        with pytest.raises(ValidationError, match="grid.steps"):
            TimeGrid(horizon=1.0, steps=steps)

    def test_accepts_numpy_integer_steps(self):
        assert TimeGrid(1.0, np.int64(4)).dt == 0.25

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValidationError, match="grid.horizon"):
            TimeGrid(horizon=horizon, steps=10)


class TestSimulation:
    def test_brownian_terminal_moments(self):
        f = make_constant_field(dim=1)
        grid = TimeGrid(1.0, 50)
        X, w = simulate_terminal(f, np.array([0.0]), grid, RngStream(2), 0, 20_000)
        assert X.shape == (20_000, 1)
        assert np.all(w == 0.0)
        assert abs(X.mean()) < 0.03
        assert abs(X.var() - 1.0) < 0.05

    def test_drift_shifts_mean(self):
        f = make_constant_field(dim=2, b0=[1.0, -0.5])
        grid = TimeGrid(1.0, 50)
        X, _ = simulate_terminal(f, np.zeros(2), grid, RngStream(3), 0, 20_000)
        assert np.allclose(X.mean(axis=0), [1.0, -0.5], atol=0.05)

    def test_weight_accumulates_potential(self):
        f = make_constant_field(dim=1, c0=0.5)
        # dt and c0*dt are binary fractions, so the accumulated sum is exact
        grid = TimeGrid(1.0, 64)
        _, w = simulate_terminal(f, np.array([0.0]), grid, RngStream(4), 0, 8)
        assert np.all(w == 0.5)

    def test_single_path_matches_block(self):
        f = make_sin_field(dim=1, amp=0.4)
        grid = TimeGrid(0.5, 40)
        rng = RngStream(5)
        X, w = simulate_terminal(f, np.array([0.2]), grid, rng, 0, 6)
        for p in range(6):
            path = simulate_path(f, [0.2], grid, rng, path_index=p)
            assert np.array_equal(path.states[-1], X[p])
            assert path.weight_log[-1] == w[p]

    def test_weight_exponential(self):
        f = make_constant_field(dim=1, c0=1.0)
        grid = TimeGrid(1.0, 64)
        path = simulate_path(f, [0.0], grid, RngStream(0))
        assert path.weight_log[-1] == pytest.approx(1.0, rel=1e-12)

    def test_divergence_raises_with_step(self):
        f = make_constant_field(dim=1, b0=1e308)
        grid = TimeGrid(2.0, 8)  # the drift sum overflows past ~1.8e308
        with pytest.raises(SimulationDivergedError) as exc:
            simulate_terminal(f, np.array([0.0]), grid, RngStream(0), 0, 4)
        assert exc.value.step_index >= 1

    def test_bad_start_shape(self):
        f = make_constant_field(dim=2)
        with pytest.raises(ValidationError):
            simulate_path(f, [0.0], TimeGrid(1.0, 4), RngStream(0))

    @pytest.mark.parametrize("f", [
        make_constant_field(dim=2, a0=[[1.5, 0.3], [0.3, 1.0]], b0=[0.2, -0.1], c0=0.1),
        make_constant_field(dim=1, a0=2.0),
    ], ids=["2d-anisotropic", "1d"])
    def test_undeclared_sigma_is_the_root_of_a(self, f):
        # with neither sigma nor sigma_scalar declared, sigma_batch takes
        # the square root of a, which gives the declared sigma's bytes
        grid, d = TimeGrid(1.0, 40), f.dim

        def outputs(field):
            X, w = simulate_terminal(field, np.zeros(d), grid, RngStream(3), 0, 200)
            tau = coupling_times(field, np.zeros(d), 0.3 * np.eye(d)[0], grid,
                                 RngStream(3), 200)
            return X.tobytes(), w.tobytes(), tau.tobytes()

        assert outputs(dataclasses.replace(f, sigma=None, sigma_scalar=None)) == outputs(f)


class TestTerminalScan:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), dim=st.integers(1, 3),
           n=st.integers(1, 60), path_lo=st.integers(0, 2**40),
           steps=st.integers(1, 200), a0=st.floats(0.05, 20.0),
           x0=st.floats(-2.0, 2.0), budget=st.sampled_from([None, 450, 5000]))
    def test_terminal_scan_matches_step_loop(self, seed, dim, n, path_lo, steps,
                                             a0, x0, budget):
        # the scan of a declared constant sigma and the per-node loop it
        # replaces (the same field without the declaration) give the same
        # bytes; a small budget puts chunk edges inside the horizon, some
        # of them inside a four-double counter block
        f = make_constant_field(dim=dim, a0=a0)
        assert f.sigma_scalar is not None
        loop_f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, steps)
        scanned = []
        scan = sde_engine._scan_terminal

        def counted(s, rng, paths, X, grid):
            scanned.append(grid.steps)
            return scan(s, rng, paths, X, grid)

        with mock.patch.object(sde_engine, "_CHUNK_BUDGET",
                               budget or sde_engine._CHUNK_BUDGET), \
                mock.patch.object(sde_engine, "_scan_terminal", counted):
            runs = [simulate_terminal(field, np.full(dim, x0), grid,
                                      RngStream(seed), path_lo, path_lo + n)
                    for field in (f, loop_f)]
        assert sum(scanned) == steps  # the declared field scans every step
        for a, b in zip(*runs, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_terminal_scan_divergence_matches_step_loop(self, bad, monkeypatch):
        # a non-finite increment stops the scan and the loop at the same
        # step, the earliest over paths, in any chunk and any sub-tile
        f = make_constant_field(dim=2)
        loop_f = dataclasses.replace(f, sigma_scalar=None)
        grid = TimeGrid(1.0, 100)
        inject = {}  # path -> step whose increment is replaced
        # the drawn uniform of each injected step is marked with a value no
        # uniform takes, and the map to increments replaces its increment
        mark = 2.0
        uniforms, increments = RngStream.uniforms, sde_engine._increments

        def marked(self, paths, lo, hi, d, buf=None):
            u = uniforms(self, paths, lo, hi, d, buf)
            for p, k in inject.items():
                row = np.flatnonzero(np.asarray(paths) == p)
                if row.size and lo <= k < hi:
                    u[row[0], k - lo, d - 1] = mark
            return u

        def spoiled(u, dt):
            at = u == mark
            dW = increments(u, dt)
            dW[at] = bad
            return dW

        monkeypatch.setattr(RngStream, "uniforms", marked)
        monkeypatch.setattr(sde_engine, "_increments", spoiled)
        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 450)  # 16-step chunks
        # the scan's sub-tiles: one row in 16-step chunks
        monkeypatch.setattr(sde_engine, "_SUB_TILE", 32)

        def step_index(field):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    simulate_terminal(field, np.zeros(2), grid, RngStream(3), 0, 20)
                except SimulationDivergedError as exc:
                    return exc.step_index
            return None

        inject.update({5: 40, 12: 37})
        assert step_index(f) == step_index(loop_f) == 38
        inject[12] = 15  # the last step of the first chunk
        assert step_index(f) == step_index(loop_f) == 16
        inject.clear()
        inject[19] = 99  # the last step of the horizon
        assert step_index(f) == step_index(loop_f) == 100
        inject.clear()
        assert step_index(f) is None and step_index(loop_f) is None

    def test_path_tile_holds_the_horizon_in_the_budget(self):
        # a step-loop field: the horizons of 2048 to _DEFAULT_BLOCK paths
        # in _CHUNK_BUDGET doubles
        budget = sde_engine._CHUNK_BUDGET
        loop = {d: make_sin_field(dim=d, amp=0.5) for d in (1, 2, 3)}
        assert path_tile(loop[2], TimeGrid(0.5, 500)) == budget // 1000
        assert path_tile(loop[1], TimeGrid(1.0, 1000)) == budget // 1000
        assert path_tile(loop[1], TimeGrid(1.0, 1953)) == 2048
        # outside [2048, _DEFAULT_BLOCK] paths a solve keeps the fixed block
        block = sde_engine._DEFAULT_BLOCK
        assert path_tile(loop[1], TimeGrid(1.0, 1954)) == block
        assert path_tile(loop[3], TimeGrid(1.0, 10**6)) == block
        assert path_tile(loop[1], TimeGrid(1.0, budget // block)) == block
        assert path_tile(loop[1], TimeGrid(1.0, 10)) == block

    def test_scanned_path_tile_is_the_default_block(self):
        # a scanned field takes _DEFAULT_BLOCK paths whatever its horizon:
        # the scan draws in sub-tiles (test_scanned_solves_draw_sub_tiles)
        block = sde_engine._DEFAULT_BLOCK
        scanned = {d: make_constant_field(dim=d) for d in (1, 2, 3)}
        assert path_tile(scanned[2], TimeGrid(0.5, 500)) == block
        assert path_tile(scanned[1], TimeGrid(1.0, 1500)) == block
        assert path_tile(scanned[1], TimeGrid(1.0, 4000)) == block
        assert path_tile(scanned[3], TimeGrid(1.0, 10**6)) == block
        assert path_tile(scanned[1], TimeGrid(1.0, 10)) == block
        # a drift or a potential makes the same sigma a step-loop field,
        # whose tiles follow the budget
        budget = sde_engine._CHUNK_BUDGET
        for field in (make_constant_field(dim=1, b0=0.3),
                      make_constant_field(dim=1, c0=0.2),
                      dataclasses.replace(scanned[1], sigma_scalar=None)):
            assert path_tile(field, TimeGrid(1.0, 4000)) == block
            assert path_tile(field, TimeGrid(1.0, 1500)) == budget // 1500


class TestDrawChunks:
    def test_chunked_drivers_draw_into_the_thread_buffer(self, monkeypatch):
        # simulate_terminal, the running max, the terminal pair driver and
        # the block driver draw every chunk of a call into the calling
        # thread's kept buffer; another thread draws into its own, grown to
        # its largest request, here the budget
        bufs = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            bufs.append(buf)
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        # 16-step chunks of the 30 pairs fill the budget exactly
        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 16 * 2 * 30)
        f = make_sin_field(dim=1, amp=0.5, c0=0.2)
        grid = TimeGrid(1.0, 50)
        rng = RngStream(4)
        drivers = {
            "terminal": lambda: simulate_terminal(f, [0.0], grid, rng, 0, 30),
            "running-max": lambda: simulate_brownian_running_max(1.0, 30, 50, rng),
            "pairs": lambda: coupling.simulate_coupled_terminal(
                f, [0.0], [0.1], grid, rng, 0, 30, 0.01),
            "survivors": lambda: coupling_times(f, [0.0], [0.1], grid, rng, 30),
        }

        def run_all():
            drawn = {}
            for name, run in drivers.items():
                bufs.clear()
                run()
                drawn[name] = list(bufs), sde_engine._draw_buffer(0)
            return drawn

        for name, (drawn, kept) in run_all().items():
            assert len(drawn) >= 2 and all(b is kept for b in drawn), name
        other = []
        t = threading.Thread(target=lambda: other.append(run_all()))
        t.start()
        t.join()
        theirs = other[0]["terminal"][1]
        assert theirs is not sde_engine._draw_buffer(0)
        assert theirs.size == sde_engine._CHUNK_BUDGET
        for name, (drawn, kept) in other[0].items():
            assert kept is theirs and all(b is theirs for b in drawn), name

    def test_fixed_batches_fill_the_budget_from_the_first_chunk(self, monkeypatch):
        # only the survivor loop caps its chunks at the steps already
        # taken: a scanned solve of 500 2D steps draws every row's horizon
        # in one call, and the drivers that carry a fixed batch to the
        # horizon cut it into chunk_steps ranges
        calls = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            calls.append((len(paths), lo, hi))
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        req = SolveRequest(field=make_constant_field(dim=2), terminal=make_gaussian_bump(np.zeros(2), 1.0),
                           eval_point=np.zeros(2), n_paths=20_000,
                           grid=TimeGrid(0.5, 500))
        solve_u(req, RngStream(1))
        assert {c[1:] for c in calls} == {(0, 500)}
        assert sum(c[0] for c in calls) == 20_000

        monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", 2000)
        f = make_sin_field(dim=1, amp=0.5, c0=0.2)
        grid, rng = TimeGrid(1.0, 300), RngStream(4)
        drivers = {  # (run, doubles per path-step)
            "terminal": (lambda: simulate_terminal(f, [0.0], grid, rng, 0, 10), 1),
            "running-max": (lambda: simulate_brownian_running_max(1.0, 10, 300, rng), 2),
            "pairs": (lambda: coupling.simulate_coupled_terminal(
                f, [0.0], [0.1], grid, rng, 0, 10, 0.01), 2),
        }
        for name, (run, per) in drivers.items():
            calls.clear()
            run()
            step = sde_engine.chunk_steps(10 * per)
            assert step > 64, name
            assert calls == [(10, k, min(300, k + step)) for k in range(0, 300, step)], name


    @staticmethod
    def _solve_draws(field, steps, n_paths, monkeypatch):
        """(paths, step_lo, step_hi, dim) of each draw call of a solve."""
        calls = []
        uniforms = RngStream.uniforms

        def logged(self, paths, lo, hi, d, buf=None):
            calls.append((len(paths), lo, hi, d))
            return uniforms(self, paths, lo, hi, d, buf)

        monkeypatch.setattr(RngStream, "uniforms", logged)
        d = field.dim
        solve_u(SolveRequest(field=field, terminal=make_gaussian_bump(np.zeros(d), 1.0),
                             eval_point=np.zeros(d), n_paths=n_paths,
                             grid=TimeGrid(1.0, steps)), RngStream(2))
        return calls

    @pytest.mark.parametrize("dim,steps,n_paths", [
        (2, 500, 6000), (1, 1500, 3000), (1, 4000, 1200),
        # a horizon longer than one sub-tile
        (1, sde_engine._SUB_TILE + 1000, 3),
    ])
    def test_scanned_solves_draw_sub_tiles(self, dim, steps, n_paths, monkeypatch):
        # every draw call of a constant-sigma solve fills at most one
        # sub-tile of _SUB_TILE doubles, in whichever thread it runs; a
        # horizon that fits one is drawn whole in one call, and every
        # path-step is drawn once
        calls = self._solve_draws(make_constant_field(dim=dim), steps, n_paths, monkeypatch)
        assert all(n * (hi - lo) * d <= sde_engine._SUB_TILE for n, lo, hi, d in calls)
        assert sum(n * (hi - lo) for n, lo, hi, _ in calls) == n_paths * steps
        if steps * dim <= sde_engine._SUB_TILE:
            assert {c[1:] for c in calls} == {(0, steps, dim)}
        else:
            assert len(calls) > n_paths

    @pytest.mark.parametrize("steps,n_paths,calls", [
        # 2666 paths' horizons fill the budget: a tile is one call
        (1500, 3000, [(2666, 0, 1500, 1), (334, 0, 1500, 1)]),
        # below 2048 paths: the fixed block in chunk_steps(1200) = 3333
        (4000, 1200, [(1200, 0, 3333, 1), (1200, 3333, 4000, 1)]),
    ])
    def test_step_loop_solves_keep_budget_tiles(self, steps, n_paths, calls,
                                                monkeypatch):
        # a sin solve is stepped, so its tiles and chunks follow
        # _CHUNK_BUDGET, not _SUB_TILE
        field = make_sin_field(dim=1, amp=0.5)
        assert self._solve_draws(field, steps, n_paths, monkeypatch) == calls


class TestRunningMaxSampler:
    def test_dominates_zero_and_is_deterministic(self):
        m1 = simulate_brownian_running_max(1.0, 500, 16, RngStream(8))
        m2 = simulate_brownian_running_max(1.0, 500, 16, RngStream(8))
        assert np.array_equal(m1, m2)
        assert np.all(m1 >= 0.0)

    def test_law_insensitive_to_step_count(self):
        # the bridge construction is exact in law, so refining the grid
        # only reshuffles randomness, not the distribution
        qs = np.array([0.25, 0.5, 0.75, 0.9])
        a = np.quantile(simulate_brownian_running_max(1.0, 40_000, 4, RngStream(9)), qs)
        b = np.quantile(simulate_brownian_running_max(1.0, 40_000, 64, RngStream(10)), qs)
        assert np.allclose(a, b, atol=0.03)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            simulate_brownian_running_max(0.0, 10, 4, RngStream(0))
        # nan and inf horizons, fractional or zero counts: a ValidationError
        # before any draw, not nan samples, a warning or a TypeError
        for t, n_paths, steps in [(np.nan, 10, 4), (np.inf, 10, 4), (1.0, 10, 2.5),
                                  (1.0, 0, 4), (1.0, 10.0, 4), (1.0, 10, True)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError):
                    simulate_brownian_running_max(t, n_paths, steps, RngStream(0))


class TestPathBlocks:
    def test_results_ordered_and_partition_invariant(self):
        def worker(lo, hi):
            return np.arange(lo, hi, dtype=float)

        out = run_path_blocks(100, worker, block_size=7)
        assert np.array_equal(out, np.arange(100.0))
        assert np.array_equal(out, run_path_blocks(100, worker, block_size=100))

    def test_tuple_results(self):
        def worker(lo, hi):
            idx = np.arange(lo, hi, dtype=float)
            return idx, idx**2

        a, b = run_path_blocks(50, worker, block_size=16, path_offset=10)
        assert np.array_equal(a, np.arange(10.0, 60.0))
        assert np.array_equal(b, a**2)

    def test_divergence_names_the_earliest_step_of_any_block(self):
        # every block runs, and the earliest divergence of any is raised
        ran = []

        def worker(lo, hi):
            ran.append(lo)
            if lo in (0, 14):
                raise SimulationDivergedError(9 if lo == 0 else 4)
            return np.arange(lo, hi, dtype=float)

        with pytest.raises(SimulationDivergedError) as exc:
            run_path_blocks(30, worker, block_size=7)
        assert exc.value.step_index == 4
        assert ran == [0, 7, 14, 21, 28]

    @pytest.mark.parametrize("n_paths,block_size", [(0, 7), (-3, 7), (30, 0), (30, -1)])
    def test_rejects_empty_runs_and_blocks(self, n_paths, block_size):
        # a ValidationError, not an IndexError or ValueError from the runner
        with pytest.raises(ValidationError):
            run_path_blocks(n_paths, lambda lo, hi: np.arange(lo, hi, dtype=float),
                            block_size=block_size)

    def test_simulation_invariant_under_workers(self):
        f = make_sin_field(dim=1, amp=0.3)
        grid = TimeGrid(0.5, 20)
        rng = RngStream(11)

        def worker(lo, hi):
            X, w = simulate_terminal(f, np.array([0.0]), grid, rng, lo, hi)
            return X[:, 0], w

        # the same paths in blocks of 64 and in one block
        x1, w1 = run_path_blocks(300, worker, block_size=64)
        x2, w2 = run_path_blocks(300, worker, block_size=300)
        assert np.array_equal(x1, x2)
        assert np.array_equal(w1, w2)


TOP = 1.0 - 2.0**-53  # the largest uniform


def _serial(fn, *args):
    """fn(*args) with every map and scan in the calling thread."""
    with mock.patch.object(sde_engine, "_SPLIT_MIN", sys.maxsize):
        return fn(*args)


def _with_top_rows(shape, seed=0):
    """Uniforms of the given shape whose rows each start with the largest
    uniform, so every row block holds one."""
    u = np.random.default_rng(seed).random(shape)
    u.reshape(len(u), -1)[:, 0] = TOP
    return u


class TestRowBlocks:
    """Maps and terminal scans cut into row blocks that threads share
    (``sde_engine._on_row_blocks``) give the bytes of the serial ones."""

    @pytest.mark.parametrize("shape,view", [
        ((1, 300, 2), lambda u: u),
        ((37, 11, 3), lambda u: u),
        ((101, 7), lambda u: u),
        ((37, 11, 3), lambda u: u[:, :, :1]),
        ((37, 11, 2), lambda u: u[:, :, 0]),
    ], ids=["one-row", "odd-rows", "2d", "first-column-kept", "first-column"])
    def test_map_matches_serial(self, shape, view, threaded):
        # in place on the view, leaving the other columns as they were
        u = _with_top_rows(shape)
        expected = u.copy()
        _serial(to_increments, view(expected), 0.01)
        out = to_increments(view(u), 0.01)
        assert np.shares_memory(out, u) and np.isfinite(out).all()
        assert u.tobytes() == expected.tobytes()

    def test_pool_threads_share_the_blocks(self, threaded, monkeypatch):
        # more blocks than threads, each mapped once; blocks that take a
        # while are pulled by more than one thread
        names, sizes = set(), []
        ndtri = sde_engine.ndtri

        def slow(u, out=None):
            threading.Event().wait(0.005)
            names.add(threading.current_thread().name)
            sizes.append(u.size)
            return ndtri(u, out=out)

        u = _with_top_rows((40, 50))
        expected = _serial(to_increments, u.copy(), 0.01)
        monkeypatch.setattr(sde_engine, "ndtri", slow)
        assert to_increments(u, 0.01).tobytes() == expected.tobytes()
        assert len(sizes) == 12 and sum(sizes) == u.size
        assert len(names) >= 2

    def test_blocks_are_pulled_once_under_thread_switching(self, threaded, monkeypatch):
        # eight threads switching every microsecond: a block pulled twice
        # maps its rows twice, a block lost leaves them unmapped; a scan's
        # sub-tiles (two rows of 30 steps) drawn in the wrong thread's
        # buffer or under a lost lock leave wrong last nodes
        monkeypatch.setattr(sde_engine, "_MAX_THREADS", 8)
        monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(sde_engine, "_SUB_TILE", 2 * 30)
        f = make_constant_field(dim=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(100):
                u = _with_top_rows((200, 30), seed)
                expected = _serial(to_increments, u.copy(), 0.01)
                assert to_increments(u, 0.01).tobytes() == expected.tobytes()
            for seed in range(10):
                args = (f, [0.0], TimeGrid(1.0, 30), RngStream(seed), 0, 200)
                expected = _serial(simulate_terminal, *args)[0]
                assert simulate_terminal(*args)[0].tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert sde_engine._threads() == 8

    def test_scan_matches_serial(self, threaded, monkeypatch):
        # a scanned call whose row blocks each draw, map and scan in their
        # own thread, in sub-tiles of two rows, gives the serial bytes
        f = make_constant_field(dim=2, a0=2.0)
        assert f.sigma_scalar is not None
        monkeypatch.setattr(sde_engine, "_SUB_TILE", 2 * 13 * 2)

        def run():
            return simulate_terminal(f, [0.3, -0.2], TimeGrid(1.0, 13), RngStream(1), 5, 42)

        for a, b in zip(run(), _serial(run), strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("first,last", [(60, 30), (30, 60)],
                             ids=["later-in-first-block", "earlier-in-first-block"])
    def test_scan_names_the_earliest_step_across_blocks(self, first, last, threaded,
                                                        monkeypatch):
        # the first path sits in the first block, the last path in the
        # last; the uniform of each (path, step) in marks is replaced by a
        # code that the map turns into a non-finite increment
        marks = {(0, first): 2.0, (19, last): 3.0}
        codes = {2.0: np.inf, 3.0: np.nan}
        uniforms, increments = RngStream.uniforms, sde_engine._increments

        def marked(rng, paths, lo, hi, d, buf=None):
            u = uniforms(rng, paths, lo, hi, d, buf)
            for row, p in enumerate(np.asarray(paths).tolist()):
                for k in range(lo, hi):
                    if (p, k) in marks:
                        u[row, k - lo, 0] = marks[p, k]
            return u

        def spoiled(u, dt):
            at = {code: u == code for code in codes}
            dW = increments(u, dt)
            for code, mask in at.items():
                dW[mask] = codes[code]
            return dW

        monkeypatch.setattr(RngStream, "uniforms", marked)
        monkeypatch.setattr(sde_engine, "_increments", spoiled)
        f = make_constant_field(dim=2)
        for run in (simulate_terminal, lambda *args: _serial(simulate_terminal, *args)):
            with pytest.raises(SimulationDivergedError) as exc:
                run(f, np.zeros(2), TimeGrid(1.0, 100), RngStream(2), 0, 20)
            assert exc.value.step_index == 30 + 1

    def test_helpers_keep_the_callers_error_state(self, threaded):
        # every block overflows; ignored (as simulate_terminal sets it), no
        # thread warns, and raised, the error reaches the caller from
        # whichever thread met it
        f = dataclasses.replace(make_constant_field(dim=1), sigma_scalar=1e308)
        grid = TimeGrid(1e6, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergedError):
                simulate_terminal(f, [0.0], grid, RngStream(3), 0, 40)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                sde_engine._scan_terminal(1e308, RngStream(3), sde_engine.path_range(0, 40),
                                          np.zeros((40, 1)), grid)

    @pytest.mark.parametrize("dim,n,steps,budget", [
        (1, 1, 200, None), (1, 37, 200, 450), (2, 60, 17, 5000), (3, 7, 200, None),
        (2, 13, 1, 450)])
    def test_terminal_scan_matches_step_loop_in_row_blocks(self, dim, n, steps, budget,
                                                           threaded):
        matches = TestTerminalScan.test_terminal_scan_matches_step_loop.hypothesis.inner_test
        matches(self, seed=2**63 + n, dim=dim, n=n, path_lo=2**40 - n, steps=steps,
                a0=2.5, x0=-0.3, budget=budget)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_terminal_scan_divergence_in_row_blocks(self, bad, threaded, monkeypatch):
        TestTerminalScan().test_terminal_scan_divergence_matches_step_loop(bad, monkeypatch)

    def test_error_reaches_the_caller_after_every_block_has_run(self, threaded):
        # the first block fails at once while the others are still running:
        # the caller sees the error only when no block can still write into
        # its arrays
        ran = []

        def block(lo, hi):
            if lo == 0:
                raise ValueError("block 0")
            time.sleep(0.02)
            ran.append(lo)

        with pytest.raises(ValueError, match="block 0"):
            sde_engine._on_row_blocks(block, 12, 12)
        assert sorted(ran) == list(range(1, 12))

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(sde_engine, "_SPLIT_MIN", 2)
        monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(sde_engine.os, "cpu_count", lambda: 1)
        before = set(threading.enumerate())
        f = make_constant_field(dim=2)

        def run():
            return simulate_terminal(f, np.zeros(2), TimeGrid(1.0, 100), RngStream(4), 0, 64)

        assert run()[0].tobytes() == _serial(run)[0].tobytes()
        u = _with_top_rows((64, 100, 2))
        expected = _serial(to_increments, u.copy(), 0.01)
        assert to_increments(u, 0.01).tobytes() == expected.tobytes()
        assert sde_engine._threads() == 1
        assert set(threading.enumerate()) == before

    def test_threads_without_affinity_read_the_cpu_count(self, monkeypatch):
        # where os has no sched_getaffinity the CPU count decides: three
        # CPUs open a pool of three threads, an unknown count (None) runs
        # every map in the calling thread and opens no pool
        monkeypatch.delattr(sde_engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sde_engine, "_SPLIT_MIN", 2)
        pools, executor = [], sde_engine.ThreadPoolExecutor
        monkeypatch.setattr(sde_engine, "ThreadPoolExecutor",
                            lambda threads, **kw: pools.append(threads) or executor(threads, **kw))
        u = _with_top_rows((64, 100))
        expected = _serial(to_increments, u.copy(), 0.01)
        for cpus, threads, opened in [(3, 3, [3]), (None, 1, [])]:
            monkeypatch.setattr(sde_engine.os, "cpu_count", lambda: cpus)
            pools.clear()
            assert sde_engine._threads() == threads
            assert to_increments(u.copy(), 0.01).tobytes() == expected.tobytes()
            assert pools == opened, cpus

    def test_no_row_thread_outlives_the_call(self, threaded, monkeypatch):
        # a split map and a split scan run in couplemc-rows threads, and
        # none of them is alive once the call has returned
        names, increments = set(), sde_engine._increments

        def named(u, dt):
            names.add(threading.current_thread().name)
            return increments(u, dt)

        def row_threads():
            return [t for t in threading.enumerate() if t.name.startswith("couplemc-rows")]

        monkeypatch.setattr(sde_engine, "_increments", named)
        f = make_constant_field(dim=2)
        for run in (lambda: to_increments(_with_top_rows((40, 50)), 0.01),
                    lambda: simulate_terminal(f, np.zeros(2), TimeGrid(1.0, 100),
                                              RngStream(4), 0, 64)):
            names.clear()
            run()
            assert names and all(n.startswith("couplemc-rows") for n in names)
            assert not row_threads()

    def test_only_large_arrays_are_split(self, monkeypatch):
        # a scanned call of _SPLIT_MIN path-step draws is split, in one
        # request; the block driver of a few thousand pairs, scan or step
        # loop, never asks for threads
        asked = []
        monkeypatch.setattr(sde_engine, "_threads", lambda: asked.append(1) or 1)
        grid = TimeGrid(1.0, 128)
        f = make_constant_field(dim=1)
        for field in (f, dataclasses.replace(f, sigma_scalar=None)):
            coupling_times(field, [0.0], [0.2], grid, RngStream(1), 6000)
        assert not asked
        n = sde_engine._SPLIT_MIN // grid.steps
        simulate_terminal(f, [0.0], grid, RngStream(1), 0, n - 1)
        assert not asked
        simulate_terminal(f, [0.0], grid, RngStream(1), 0, n)
        assert len(asked) == 1  # each block draws, maps and scans its rows

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_maps_with_its_own_pool(self, threaded):
        # a child forked after the parent's split map opens its own pool,
        # whose threads map the same bytes
        u = _with_top_rows((64, 100, 2))
        expected = to_increments(u.copy(), 0.01)

        def child():
            names, increments = set(), sde_engine._increments

            def named(u, dt):
                names.add(threading.current_thread().name)
                return increments(u, dt)

            sde_engine._increments = named
            ok = to_increments(u.copy(), 0.01).tobytes() == expected.tobytes()
            pooled = names and all(n.startswith("couplemc-rows") for n in names)
            os._exit(0 if ok and pooled else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.exitcode is None:
            proc.kill()
        assert proc.exitcode == 0

    def test_pool_does_not_hold_up_exit(self):
        # a process whose pool has mapped a large array has no couplemc
        # thread left and exits at once
        code = ("import os, threading, numpy as np; from couplemc import sde_engine; "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "sde_engine.to_increments(np.random.random((64, 8192)), 0.01); "
                "assert not [t for t in threading.enumerate() if 'couplemc' in t.name]")
        src = os.path.dirname(os.path.dirname(sde_engine.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_mean_stderr():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    m, se = mean_stderr(v)
    assert m == pytest.approx(2.5)
    assert se == pytest.approx(np.std(v, ddof=1) / 2.0)
    m1, se1 = mean_stderr(np.array([5.0]))
    assert (m1, se1) == (5.0, 0.0)


def test_rung_means():
    # rung i of a ladder's per-pair arrays is the slice [i n, (i + 1) n):
    # each rung's tuple holds the bytes of mean_stderr on its slices, and
    # the mean of a bool rung is np.mean of it bit for bit
    rng = np.random.default_rng(7)
    n, rungs = 1001, 4
    v = rng.standard_normal(n * rungs) * 1e3
    w = rng.exponential(size=n * rungs)
    mask = rng.random(n * rungs) < 0.37
    got = rung_means(n, v, w, mask)
    assert len(got) == rungs
    for i, row in enumerate(got):
        rung = slice(i * n, (i + 1) * n)
        want = [mean_stderr(s[rung]) for s in (v, w, mask)]
        assert np.array(row).tobytes() == np.array(want).tobytes(), i
        assert np.float64(row[2][0]).tobytes() == np.mean(mask[rung]).tobytes(), i
