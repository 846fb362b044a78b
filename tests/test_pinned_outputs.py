"""Byte-level pins of every simulation driver at small size.

Each case runs one driver on a fixed seed and hashes the raw bytes of its
outputs.  Every path-p, step-k draw is a pure function of (seed, p, k), so
a refactor of the step kernel must leave these hashes unchanged; a change
that alters the stream on purpose updates them and says so.  The hashes
were recorded with NumPy 2.4 and SciPy 1.17 on x86-64; another math
library may round sin, exp or ndtri differently.  The path-1d-sin and
coupled-1d-sin cases pin the step-by-step references (``reference_paths``)
that the drivers are compared with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import reference_paths
from couplemc import RngStream, TimeGrid, coupling_times, sde_engine
from couplemc.cli import run_experiment
from couplemc.config import load_config
from couplemc.coupling import simulate_coupled_terminal
from couplemc.fk_solver import SolveRequest, difference_ladder
from couplemc.registry import (make_constant_field, make_gaussian_bump,
                               make_log_modulus_field, make_power_modulus_field,
                               make_sin_field)
from couplemc.sde_engine import rung_means, simulate_terminal

GRID = TimeGrid(1.0, 200)
N = 200
ANISO = [[1.5, 0.3], [0.3, 1.0]]


def _tau_1d_constant():
    return [coupling_times(make_constant_field(dim=1), [0.0], [0.1], GRID,
                           RngStream(101), N)]


def _terminal_1d_sin():
    f = make_sin_field(dim=1, amp=0.5, c0=0.3)
    return list(simulate_coupled_terminal(f, [0.1], [0.2], GRID, RngStream(102),
                                          0, N, 0.01))


def _simulate_terminal_2d_constant():
    f = make_constant_field(dim=2, a0=ANISO, b0=[0.2, -0.1], c0=0.1)
    return list(simulate_terminal(f, np.array([0.1, -0.2]), GRID,
                                  RngStream(103), 0, N))


def _simulate_terminal_2d_scalar():
    f = make_constant_field(dim=2, a0=2.0)
    return list(simulate_terminal(f, np.array([0.1, -0.2]), GRID,
                                  RngStream(109), 0, N))


def _tau_2d_anisotropic():
    return [coupling_times(make_constant_field(dim=2, a0=ANISO), [0.0, 0.0],
                           [0.2, 0.0], GRID, RngStream(104), N,
                           couple_tol=0.05)]


def _terminal_2d_sin():
    f = make_sin_field(dim=2, amp=0.5, c0=0.2)
    return list(simulate_coupled_terminal(f, [0.1, 0.0], [0.3, 0.1], GRID,
                                          RngStream(105), 0, N, 0.05))


def _path_1d_sin():
    f = make_sin_field(dim=1, amp=0.5, c0=0.3)
    return list(reference_paths.path(f, [0.2], GRID, RngStream(106), p=3))


def _coupled_1d_sin():
    f = make_sin_field(dim=1, amp=0.5, c0=0.3)
    *legs, tau = reference_paths.pair(f, [0.0], [0.4], GRID, RngStream(107), p=5)
    # the pair meets, at node tau of GRID
    assert tau >= 0
    return legs + [np.array([tau]), np.array([min(tau * GRID.dt, GRID.horizon)])]


def _terminal_2d_power_modulus():
    f = make_power_modulus_field(dim=2, height=0.5, alpha=0.5)
    return list(simulate_coupled_terminal(f, [0.05, 0.0], [0.25, 0.1], GRID,
                                          RngStream(111), 0, N, 0.05))


def _simulate_terminal_2d_log_modulus():
    f = make_log_modulus_field(dim=2, height=0.5, alpha=2.0)
    return list(simulate_terminal(f, np.array([0.05, -0.1]), GRID,
                                  RngStream(112), 0, N))


def _tau_1d_sin():
    # a non-constant sigma: the block driver steps pair by pair
    return [coupling_times(make_sin_field(dim=1, amp=0.5), [0.0], [0.1], GRID,
                           RngStream(113), N)]


def _difference_sin(dim, seed):
    # c = 0: only the unmet pairs are stepped, by the block driver
    x = np.zeros(dim)
    req = SolveRequest(field=make_sin_field(dim=dim, amp=0.5),
                       terminal=make_gaussian_bump(center=x, width=0.5),
                       eval_point=x, n_paths=N, grid=GRID)
    z = x.copy()
    z[0] = 0.1
    diffs, taus = difference_ladder(req, [z], RngStream(seed))
    [(mean_se,)] = rung_means(N, diffs)
    return [np.array(mean_se), taus]


def _difference_1d_sin():
    return _difference_sin(1, 117)


def _difference_2d_sin():
    return _difference_sin(2, 118)


CASES = {
    "tau-1d-constant": (_tau_1d_constant, "ee64ad276616f871"),
    "terminal-1d-sin": (_terminal_1d_sin, "16986a20041e0e7c"),
    "simulate-terminal-2d-constant": (_simulate_terminal_2d_constant, "15c443ccb7c979c3"),
    "simulate-terminal-2d-scalar": (_simulate_terminal_2d_scalar, "d02c05a40166fe48"),
    "tau-2d-anisotropic": (_tau_2d_anisotropic, "c0777f4ae1818b63"),
    "terminal-2d-sin": (_terminal_2d_sin, "0a7ebe6040d61e7d"),
    "path-1d-sin": (_path_1d_sin, "dd2574df97c94de5"),
    "coupled-1d-sin": (_coupled_1d_sin, "560d6a397b6f21db"),
    "terminal-2d-power-modulus": (_terminal_2d_power_modulus, "030a5c212b51b53d"),
    "simulate-terminal-2d-log-modulus": (_simulate_terminal_2d_log_modulus, "a13cd60140626efb"),
    "tau-1d-sin": (_tau_1d_sin, "9c4733769bb731a7"),
    "difference-1d-sin": (_difference_1d_sin, "15f29533f733449f"),
    "difference-2d-sin": (_difference_2d_sin, "298e3c4f4b42d012"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_output_bytes(case):
    run, expected = CASES[case]
    h = hashlib.sha256()
    for arr in run():
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest()[:16] == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_output_bytes_in_row_blocks(case, threaded):
    """The same pins with every map and terminal scan of two or more rows
    shared by three threads."""
    test_driver_output_bytes(case)


def _simulate_terminal_3d_sin():
    f = make_sin_field(dim=3, amp=0.5, c0=0.2)
    return list(simulate_terminal(f, np.array([0.1, 0.0, -0.1]), GRID,
                                  RngStream(108), 0, 8))


def _simulate_terminal_3d_scalar():
    # a declared scalar sigma with b = c = 0: the chunks are scanned
    f = make_constant_field(dim=3, a0=2.0)
    return list(simulate_terminal(f, np.array([0.1, 0.0, -0.1]), GRID,
                                  RngStream(110), 0, 8))


@pytest.mark.parametrize("run,budget,starts", [
    (_simulate_terminal_3d_sin, 450, "mid-block"),
    (_simulate_terminal_3d_scalar, 450, "mid-block"),
    (_tau_1d_constant, 450, "tiles"), (_difference_1d_sin, 450, "blocks"),
    # 17-step chunks of the 200 pairs' two doubles a step
    (_terminal_1d_sin, 17 * 2 * N, "mid-block"),
], ids=["simulate-terminal-3d-sin", "simulate-terminal-3d-scalar",
        "tau-1d-constant", "difference-1d-sin", "terminal-1d-sin"])
def test_chunk_boundaries_leave_bytes_unchanged(run, budget, starts, monkeypatch):
    """A small draw budget splits the steps into many chunks; the output
    bytes stay the same.  A fixed batch's chunks fill the budget, so some
    start inside a four-double counter block ("mid-block").  The survivor
    loop's chunks end on whole counter blocks, so each starts on one
    ("blocks"); the 1D constant-sigma scan also draws each chunk in row
    tiles that the small budget shrinks ("tiles")."""
    default = run()
    firsts = []
    uniforms = RngStream.uniforms

    def logged(self, paths, lo, hi, d, buf=None):
        firsts.append(lo * d)
        return uniforms(self, paths, lo, hi, d, buf)

    monkeypatch.setattr(RngStream, "uniforms", logged)
    monkeypatch.setattr(sde_engine, "_CHUNK_BUDGET", budget)
    small = run()
    assert len(firsts) >= 3
    if starts == "mid-block":
        assert any(lo % 4 for lo in firsts)
    else:
        assert not any(lo % 4 for lo in firsts)
        # several tiles of a chunk start at the same step
        assert (len(set(firsts)) < len(firsts)) == (starts == "tiles")
    for a, b in zip(default, small, strict=True):
        assert a.tobytes() == b.tobytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# sha256 of each shipped config's results.csv; the first 12 hex digits are
# the ones ROADMAP.md lists
SHIPPED = {
    "couple_bm": "e5de34dc890a79225d88a095d591bc890ce2ce271d480551cbd3280d1dc99b1a",
    "modulus_smooth": "755d7b9afa59a9fe023ca713d0ba4004b5a0f4647b7956f6382a6a1f1869a25f",
    "oracle_sgn": "e01ecb53d04daa960d9ce976997ae04deef73d46214cacaa28c85b52fa0b173b",
    "solve_gaussian": "3f8f638abcf85954510ac4075c0219019a94bf64cc0ba8d761e72bed19cf8af5",
    "validate_sin": "6a798465fef54590d740b972661e5929a379340fb987f9db58abb37f94c6a7e6",
}


# sha256 of the same runs' summary.json without wall_time_s, as canonical
# JSON (sorted keys), the form tools/run_configs.py prints
SHIPPED_SUMMARY = {
    "couple_bm": "39a3545b78d4d6a0e79b2c9e3ce9168b5d0bdaed87fce86922eed1b5f8937e23",
    "modulus_smooth": "f02e8d4d6782bf1505899a1afbc7644f96f9fff924e8d8214e0b20d79ea31e69",
    "oracle_sgn": "19ff2551f164608af9ca7add1e17632d842087908906d79630b56a9617fe4138",
    "solve_gaussian": "5109372e37ffdee87dbdc311e149506e0de5b1d5c3ddcc3b8979907aa3b69373",
    "validate_sin": "ab0acfa9a696ab3e55e219af80c355ecb3182bae362eb8b6b89f53b3432bcb45",
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_results(name, tmp_path):
    run_dir = run_experiment(load_config(CONFIGS / f"{name}.cfg"), tmp_path,
                             run_dir=tmp_path / "run")
    digest = hashlib.sha256((Path(run_dir) / "results.csv").read_bytes())
    assert digest.hexdigest() == SHIPPED[name]
    summary = json.loads((Path(run_dir) / "summary.json").read_text())
    del summary["wall_time_s"]
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    assert digest.hexdigest() == SHIPPED_SUMMARY[name]
