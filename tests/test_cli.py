import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import couplemc
from couplemc import (RngStream, SolveRequest, TimeGrid, coupling_time_ladder,
                      coupling_times, default_couple_tol, difference_ladder, rung_means)
from couplemc.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, _setup, main)
from couplemc.config import load_config, parse_config_text, validate_config
from couplemc.registry import build_field, build_terminal, make_constant_field

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SOLVE = """
kind = solve
seed = 12
field.name = constant
field.dim = 1
terminal.name = gaussian-bump
terminal.width = 1.0
grid.horizon = 0.5
grid.steps = 50
n_paths = 400
base_point = 0.0
"""

COUPLE = """
kind = couple
seed = 5
field.name = constant
field.dim = 1
grid.horizon = 1.0
grid.steps = 200
n_paths = 600
ladder = 0.2, 0.1, 0.05
"""


def _cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_ok(tmp_path, capsys):
    rc = main(["validate", _cfg(tmp_path, SOLVE)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "config ok" in out
    assert "pass" in out


def test_validate_rejects_unknown_key(tmp_path, capsys):
    rc = main(["validate", _cfg(tmp_path, SOLVE + "\nsurprise = 1\n")])
    assert rc == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["true", "-1", "18446744073709551616"])
def test_run_rejects_a_seed_outside_the_stream_keys(seed, tmp_path, capsys):
    # true is not seed 1, and no seed aliases another modulo 2^64
    text = SOLVE.replace("seed = 12", f"seed = {seed}")
    rc = main(["run", _cfg(tmp_path, text), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_CONFIG
    assert "seed" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "d").exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.cfg")])
    assert rc == EXIT_CONFIG


def test_run_solve_artifacts(tmp_path, capsys):
    run_dir = tmp_path / "out"
    rc = main(["run", _cfg(tmp_path, SOLVE), "--run-dir", str(run_dir)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == str(run_dir)
    csv_text = (run_dir / "results.csv").read_text()
    assert csv_text.startswith("estimate,stderr,n_paths,horizon,dt\n")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["kind"] == "solve"
    assert summary["seed"] == 12
    assert summary["version"].startswith("couplemc ")
    assert summary["config"]["field.name"] == "constant"
    assert summary["wall_time_s"] >= 0.0


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _cfg(tmp_path, COUPLE)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", cfg, "--run-dir", str(d1)]) == EXIT_OK
    assert main(["run", cfg, "--run-dir", str(d2)]) == EXIT_OK
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()


def test_eval_horizon_off_the_grid_counts_meetings_by_it(tmp_path, capsys):
    # eval_horizon = 0.55 on a 10-step grid: the pairs are followed to node
    # 5, and fraction_coupled is the share of pairs met by 0.55
    text = COUPLE.replace("grid.steps = 200", "grid.steps = 10").replace(
        "n_paths = 600", "n_paths = 4000").replace(
        "ladder = 0.2, 0.1, 0.05", "ladder = 0.3").replace("seed = 5", "seed = 3")
    run_dir = tmp_path / "out"
    rc = main(["run", _cfg(tmp_path, text + "eval_horizon = 0.55\n"),
               "--run-dir", str(run_dir)])
    assert rc == EXIT_OK
    with open(run_dir / "results.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    taus = coupling_times(make_constant_field(dim=1), [0.0], [0.3],
                          TimeGrid(1.0, 10), RngStream(3), 4000)
    assert np.sum(taus == 6) > 0
    assert float(row["fraction_coupled"]) == np.mean((taus >= 0) & (taus <= 5))


def test_output_root_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COUPLEMC_OUTPUT_ROOT", str(tmp_path / "envroot"))
    rc = main(["run", _cfg(tmp_path, SOLVE)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out.startswith(str(tmp_path / "envroot"))
    assert os.path.exists(os.path.join(out, "results.csv"))


def test_oracle_zero_drift_matches_heat_kernel(tmp_path, capsys):
    shared = "oracle.t = 0.8\noracle.x = 0.3\noracle.y_min = -4\n" \
             "oracle.y_max = 4\noracle.y_count = 33\n"
    sgn = _cfg(tmp_path, "kind = oracle\nseed = 0\noracle.name = sgn\n"
               "oracle.theta = 0.0\n" + shared, "sgn.cfg")
    heat = _cfg(tmp_path, "kind = oracle\nseed = 0\noracle.name = heat\n"
                "oracle.a0 = 1.0\noracle.b0 = 0.0\n" + shared, "heat.cfg")
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", sgn, "--run-dir", str(d1)]) == EXIT_OK
    assert main(["run", heat, "--run-dir", str(d2)]) == EXIT_OK
    a = (d1 / "results.csv").read_text()
    b = (d2 / "results.csv").read_text()
    assert a.splitlines()[0] == "y,density"
    assert b.splitlines()[0] == "y,density"
    for row_a, row_b in zip(a.splitlines()[1:], b.splitlines()[1:], strict=True):
        ya, da = (float(v) for v in row_a.split(","))
        yb, db = (float(v) for v in row_b.split(","))
        assert ya == yb
        assert da == pytest.approx(db, abs=1e-12)


@pytest.mark.parametrize("name,param,key", [
    ("sgn", "oracle.theta = abc", "oracle.theta"),
    ("sgn", "oracle.y_count = 2.5", "oracle.y_count"),
    ("sgn", "oracle.y_count = -3", "oracle.y_count"),
    ("heat", "oracle.y_min = low", "oracle.y_min"),
    ("heat", "oracle.a0 = 1.0, 2.0", "oracle.a0"),
    ("running-max", "oracle.x_values = 0.5, abc", "oracle.x_values"),
    ("bm-coupling", "oracle.t = abc", "oracle.t"),
])
def test_oracle_parameters_are_config_errors(tmp_path, capsys, name, param, key):
    # a word, a list or a fractional count is not read as a number: the
    # table is not written
    text = f"kind = oracle\nseed = 0\noracle.name = {name}\n{param}\n"
    rc = main(["run", _cfg(tmp_path, text), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


# every key each oracle reads, with a value it accepts
ORACLE_KEYS = {
    "sgn": "oracle.t = 0.5\noracle.theta = 1.0\noracle.x = 0.1\noracle.y_min = -2\n"
           "oracle.y_max = 2\noracle.y_count = 5\n",
    "heat": "oracle.t = 0.5\noracle.a0 = 1.5\noracle.b0 = 0.1\noracle.x = 0.1\n"
            "oracle.y_min = -2\noracle.y_max = 2\noracle.y_count = 5\n",
    "running-max": "oracle.t = 0.5\noracle.c1 = 1.0\noracle.c2 = 2.0\n"
                   "oracle.x_values = 0.5, 1.0\n",
    "bm-coupling": "oracle.t = 0.5\noracle.d0_values = 0.2, 0.1\n",
}


@pytest.mark.parametrize("name", sorted(ORACLE_KEYS))
def test_oracle_reads_every_key_it_accepts(tmp_path, capsys, name):
    text = f"kind = oracle\nseed = 0\noracle.name = {name}\n{ORACLE_KEYS[name]}"
    cfg = _cfg(tmp_path, text)
    assert main(["validate", cfg]) == EXIT_OK
    assert main(["run", cfg, "--run-dir", str(tmp_path / "d")]) == EXIT_OK


@pytest.mark.parametrize("name,param,key", [
    ("sgn", "oracle.thetta = 5", "oracle.thetta"),
    ("sgn", "oracle.a0 = 2.0", "oracle.a0"),
    ("heat", "oracle.theta = 1.0", "oracle.theta"),
    ("running-max", "oracle.x = 0.5", "oracle.x"),
    ("bm-coupling", "oracle.d0 = 0.1", "oracle.d0"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_oracle_keys_it_does_not_read_are_config_errors(tmp_path, capsys, name, param,
                                                        key, command):
    # a misspelled or foreign key is not ignored: the table is not written
    text = f"kind = oracle\nseed = 0\noracle.name = {name}\n{param}\n"
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("name,param,key", [
    ("sgn", "oracle.t = abc", "oracle.t"),
    ("heat", "oracle.y_count = 0", "oracle.y_count"),
    ("sgn", "oracle.t = -1", "t must be positive"),
    ("running-max", "oracle.c1 = 2\noracle.c2 = 1", "c1 <= c2"),
    ("running-max", "oracle.x_values = -1", "x must be nonnegative"),
    ("sgn", "oracle.t = nan", "oracle.t"),
    ("heat", "oracle.x = inf", "oracle.x"),
    ("running-max", "oracle.x_values = nan, 1", "oracle.x_values"),
    ("bm-coupling", "oracle.t = inf", "oracle.t"),
], ids=["word-t", "zero-y-count", "negative-t", "c1-above-c2", "negative-x",
        "nan-t-sgn", "inf-x-heat", "nan-x-value", "inf-t-bm-coupling"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_oracle_values_it_rejects_stop_validate_too(tmp_path, capsys, name, param,
                                                   key, command):
    # validate computes the table that run writes, so both stop on the
    # same value with the same message
    text = f"kind = oracle\nseed = 0\noracle.name = {name}\n{param}\n"
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


def _report(tmp_path, capsys, kind, text):
    """(fits printed by report, summary.json) of a run of the config text."""
    d = tmp_path / kind
    assert main(["run", _cfg(tmp_path, text, f"{kind}.cfg"), "--run-dir", str(d)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(d)]) == EXIT_OK
    return json.loads(capsys.readouterr().out), json.loads((d / "summary.json").read_text())


def test_report_emits_fits(tmp_path, capsys):
    fits, summary = _report(tmp_path, capsys, "couple", COUPLE)
    assert "tau_power_fit" in fits
    assert 0.5 < fits["tau_power_fit"]["slope"] < 1.5
    # run and report share one fit path
    assert fits == {"tau_power_fit": summary["tau_power_fit"]}
    # a modulus summary also holds the expected regime, which is no fit
    fits, summary = _report(tmp_path, capsys, "modulus", MODULUS)
    keys = [f"{v}_{fit}_fit" for v in ("delta_u", "tau") for fit in ("power", "log_corrected")]
    assert summary.pop("regime_expected") == "lipschitz"
    assert fits == {k: summary[k] for k in keys}


COUPLE_2D = COUPLE.replace("field.dim = 1", "field.dim = 2").replace(
    "n_paths = 600", "n_paths = 100").replace("grid.steps = 200", "grid.steps = 50")


MODULUS = """
kind = modulus
seed = 9
field.name = sin
field.dim = 1
field.amp = 0.5
terminal.name = gaussian-bump
terminal.width = 1.0
grid.horizon = 1.0
grid.steps = 200
n_paths = 300
ladder = 0.2, 0.1, 0.05
base_point = 0.1
"""

LADDERS = {
    # the 1D constant-sigma scan
    "couple-1d-constant": COUPLE,
    # the step loop
    "couple-1d-sin": COUPLE.replace("field.name = constant",
                                    "field.name = sin\nfield.amp = 0.5"),
    # pairs followed to the last node before an off-grid t
    "couple-2d-eval-horizon": COUPLE_2D.replace("ladder = 0.2, 0.1, 0.05",
                                                "ladder = 0.3, 0.2, 0.1")
    + "couple_tol = 0.05\neval_horizon = 0.55\n",
    # c = 0: the survivor loop
    "modulus-c0": MODULUS,
    # c != 0: the terminal driver in blocks of 16,384 pairs, which split
    # the third rung
    "modulus-c-blocks": MODULUS.replace("field.amp = 0.5", "field.amp = 0.5\nfield.c0 = 0.2")
    .replace("n_paths = 300", "n_paths = 6000").replace("grid.steps = 200", "grid.steps = 20"),
}


def _rows(run_dir):
    with open(run_dir / "results.csv", newline="") as fh:
        return [row for row in csv.reader(fh)][1:]


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_rows_equal_per_distance_runs(name, tmp_path, capsys):
    # a ladder runs every rung in one batch of pairs; each row has the
    # bytes of a one-rung ladder on the rung's own path block, reduced by
    # rung_means
    path = _cfg(tmp_path, LADDERS[name])
    assert main(["run", path, "--run-dir", str(tmp_path / "d")]) == EXIT_OK
    cfg = load_config(path)
    rows = _rows(tmp_path / "d")
    field = build_field(cfg.field_name, cfg.field_params)
    grid = TimeGrid(cfg.horizon, cfg.steps)
    n = cfg.n_paths
    x = np.zeros(field.dim) if cfg.base_point is None else np.atleast_1d(cfg.base_point)
    e = np.eye(field.dim)[0]
    tol = default_couple_tol(grid, field) if cfg.couple_tol is None else cfg.couple_tol
    assert len(rows) == len(cfg.ladder) >= 3
    for i, (r, row) in enumerate(zip(cfg.ladder, rows)):
        if cfg.kind == "couple":
            t = cfg.eval_horizon or cfg.horizon
            tau_step, capped = coupling_time_ladder(field, x, [x + r * e], t, grid, n,
                                                    RngStream(cfg.seed), couple_tol=tol,
                                                    path_offset=i * n)
            [(tau, (frac, _))] = rung_means(n, capped, tau_step >= 0)
            want = [*tau, frac]
            got = row[3:6]
        else:
            req = SolveRequest(field=field, eval_point=x, n_paths=n, grid=grid,
                               terminal=build_terminal(cfg.terminal_name,
                                                       cfg.terminal_params))
            diffs, taus = difference_ladder(
                req, [x + r * e], RngStream(cfg.seed), couple_tol=tol, path_offset=i * n)
            [((mean, se), tau)] = rung_means(n, diffs, taus)
            want = [abs(mean), se, *tau]
            got = row[1:5]
        assert got == [repr(float(v)) for v in want], (i, r)


@pytest.mark.parametrize("text,step", [
    # b dt = 2e308 overflows on the first step, before any pair can meet
    (COUPLE.replace("grid.horizon = 1.0", "grid.horizon = 4.0")
     .replace("grid.steps = 200", "grid.steps = 2"), 1),
    (MODULUS.replace("grid.horizon = 1.0", "grid.horizon = 4.0")
     .replace("grid.steps = 200", "grid.steps = 2"), 1),
    # with c != 0 the X legs are carried past the meeting at step 1,
    # where b dt = 1e308 absorbs every separation, and overflow on step 2
    (MODULUS.replace("grid.horizon = 1.0", "grid.horizon = 4.0")
     .replace("grid.steps = 200", "grid.steps = 4") + "field.c0 = 0.1\n", 2),
], ids=["couple", "modulus-c0", "modulus-c"])
def test_ladder_divergence_names_the_step(text, step, tmp_path, capsys):
    bad = text.replace("field.name = sin\nfield.dim = 1\nfield.amp = 0.5",
                       "field.name = constant\nfield.dim = 1")
    bad = bad.replace("field.dim = 1", "field.dim = 1\nfield.b0 = 1e308")
    rc = main(["run", _cfg(tmp_path, bad), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_DIVERGED
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "simulation-diverged",
                   "message": f"simulation diverged at step {step}"}


def test_diverged_exit_code(tmp_path, capsys):
    bad = SOLVE.replace("field.dim = 1", "field.dim = 1\nfield.b0 = 1e308")
    bad = bad.replace("grid.horizon = 0.5", "grid.horizon = 4.0")
    rc = main(["run", _cfg(tmp_path, bad), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_DIVERGED
    assert "simulation-diverged" in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    (COUPLE_2D + "base_point = 0.5\n", "base_point"),
    (COUPLE_2D + "direction = 1.0\n", "direction"),
    (COUPLE_2D + "direction = 1.0, 0.0, 0.0\n", "direction"),
    (COUPLE + "direction = 0.0\n", "direction"),
    (COUPLE_2D + "direction = 0.0, 0.0\n", "direction"),
    (COUPLE + "direction = inf\n", "direction"),
    (COUPLE + "base_point = nan\n", "base_point"),
    (SOLVE.replace("base_point = 0.0", "base_point = 0.0, 0.0"), "base_point"),
    (COUPLE_2D + "direction = 1e308, 1e308\n", None),
    (MODULUS.replace("field.dim = 1", "field.dim = 2").replace(
        "base_point = 0.1", "base_point = 0.1, 0.0") + "direction = 1e308, 1e308\n",
     None),
    (COUPLE.replace("ladder = 0.2, 0.1, 0.05", "ladder = 1.7e308, 1e308")
     + "base_point = 1.7e308\n", "ladder"),
], ids=["short-point-2d", "short-direction-2d", "long-direction-2d",
        "zero-direction-1d", "zero-direction-2d", "inf-direction",
        "nan-point", "long-point-solve", "overflowing-direction-2d",
        "overflowing-direction-modulus", "overflowing-ladder"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_placement_must_fit_the_field(tmp_path, capsys, text, key, command):
    # a point or direction that does not fit field.dim is not broadcast,
    # and a zero direction or a ladder point that overflows is not reported
    # as a divergence; a direction whose length overflows (key None) is
    # still a direction
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    if key is None:
        assert rc == EXIT_OK
        return
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("text,key", [
    (SOLVE.replace("grid.horizon = 0.5", "grid.horizon = inf"), "grid.horizon"),
    (COUPLE.replace("grid.horizon = 1.0", "grid.horizon = nan"), "grid.horizon"),
    (COUPLE + "couple_tol = nan\n", "couple_tol"),
    (COUPLE + "couple_tol = -1\n", "couple_tol"),
    (COUPLE + "workers = 2\n", "workers"),
    (COUPLE.replace("grid.steps = 200", "grid.steps = inf"), "grid.steps"),
    (COUPLE.replace("grid.steps = 200", "grid.steps = 2.5"), "grid.steps"),
    (COUPLE.replace("n_paths = 600", "n_paths = nan"), "n_paths"),
    (COUPLE.replace("ladder = 0.2, 0.1, 0.05", "ladder = nan"), "ladder"),
    (COUPLE.replace("ladder = 0.2, 0.1, 0.05", "ladder = inf, 0.1"), "ladder"),
    (COUPLE.replace("grid.horizon = 1.0", "grid.horizon = abc"), "grid.horizon"),
    (COUPLE.replace("ladder = 0.2, 0.1, 0.05", "ladder = 0.2, abc"), "ladder"),
    (COUPLE + "base_point = abc\n", "base_point"),
    (COUPLE + "direction = abc\n", "direction"),
    (COUPLE + "eval_horizon = abc\n", "eval_horizon"),
    (COUPLE + "couple_tol = abc\n", "couple_tol"),
    (COUPLE + "field.a0 = abc\n", "a0"),
    (COUPLE + "field.c0 = abc\n", "field 'constant'"),
    (SOLVE + "terminal.center = abc\n", "terminal center"),
    (COUPLE + "field.c0 = abc\n", "field.c0"),
    (COUPLE + "field.a0 = 1.0, abc\n", "field.a0"),
    (COUPLE.replace("field.dim = 1", "field.dim = true"), "field.dim"),
    (COUPLE.replace("field.dim = 1", "field.dim = 1.5"), "dim"),
    (COUPLE.replace("field.name = constant", "field.name = sin") + "field.amp = abc\n",
     "field.amp"),
    (SOLVE.replace("terminal.width = 1.0", "terminal.width = abc"), "terminal.width"),
    (SOLVE.replace("terminal.width = 1.0", "terminal.width = false"), "terminal.width"),
    (SOLVE + "terminal.center = abc\n", "terminal.center"),
    (COUPLE + "oracle.t = 0.5\n", "oracle.t"),
    (COUPLE + "oracle.name = sgn\n", "oracle.name"),
    # a nan or inf parameter is not a divergence, a nan table or a
    # sampling failure, and a declared lam is not a parameter
    (COUPLE + "field.b0 = inf\n", "field.b0"),
    (COUPLE.replace("field.name = constant\nfield.dim = 1", "field.name = sgn-drift")
     + "field.theta = inf\n", "field.theta"),
    (MODULUS.replace("terminal.width = 1.0", "terminal.width = nan"), "terminal.width"),
    (MODULUS + "terminal.center = nan\n", "terminal.center"),
    (SOLVE.replace("terminal.name = gaussian-bump\nterminal.width = 1.0",
                   "terminal.name = constant\nterminal.value = inf"), "terminal.value"),
    (COUPLE + "field.a0 = inf\n", "field.a0"),
    (COUPLE.replace("field.name = constant", "field.name = sin") + "field.amp =\n",
     "field.amp"),
    (COUPLE + "field.lam = 0.5\n", "field.lam"),
], ids=["inf-horizon-solve", "nan-horizon-couple", "nan-tol", "negative-tol",
        "two-workers", "inf-steps", "fractional-steps", "nan-paths", "nan-ladder",
        "inf-ladder", "word-horizon", "word-ladder", "word-point", "word-direction",
        "word-eval-horizon", "word-tol", "word-a0", "word-c0", "word-center",
        "word-c0-key", "word-in-a0-list-key", "bool-dim-key", "fractional-dim",
        "word-amp-key",
        "word-width-key", "bool-width-key", "word-center-key", "oracle-key-in-couple",
        "oracle-name-in-couple", "inf-b0", "inf-theta", "nan-width-modulus",
        "nan-center-modulus", "inf-terminal-value", "inf-a0", "empty-amp",
        "declared-lam"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_scalars_out_of_range_are_config_errors(tmp_path, capsys, text, key, command):
    # a horizon or tolerance that is not finite is neither a divergence nor
    # a value in the table, and workers takes no value but 1; a word or a
    # bool in a field or terminal parameter (no builder takes one), or an
    # oracle key outside kind = oracle, names its config key
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


VALIDATE = "kind = validate\nseed = 0\nfield.name = sin\nfield.dim = 1\nfield.amp = 0.5\n"
ORACLE = "kind = oracle\nseed = 0\noracle.name = sgn\n"


@pytest.mark.parametrize("text,keys", [
    # both once ran: a terminal on couple, and a ladder and a 3-entry
    # point on a 1D validate
    (COUPLE + "terminal.name = gaussian-bump\nterminal.width = -1\n",
     ["terminal.name", "terminal.width"]),
    (VALIDATE + "ladder = 0.2, 0.1\nbase_point = 0.0, 0.0, 0.0\n", ["ladder", "base_point"]),
    (COUPLE + "terminal.center = 0.5\n", ["terminal.center"]),
    (VALIDATE + "direction = 1.0\n", ["direction"]),
    (VALIDATE + "grid.steps = 100\n", ["grid.steps"]),
    (VALIDATE + "n_paths = 100\nterminal.name = linear\n", ["n_paths", "terminal.name"]),
    (SOLVE + "direction = 1.0\n", ["direction"]),
    (SOLVE + "couple_tol = 0.01\n", ["couple_tol"]),
    (SOLVE + "ladder = 0.2, 0.1\n", ["ladder"]),
    (ORACLE + "grid.horizon = 1.0\ngrid.steps = 10\n", ["grid.horizon", "grid.steps"]),
    (ORACLE + "n_paths = 100\nbase_point = 0.0\n", ["n_paths", "base_point"]),
    (ORACLE + "field.name = constant\nfield.dim = 1\n", ["field.name", "field.dim"]),
], ids=["terminal-on-couple", "ladder-and-point-on-validate", "center-on-couple",
        "direction-on-validate", "steps-on-validate", "paths-terminal-on-validate",
        "direction-on-solve", "tol-on-solve", "ladder-on-solve", "grid-on-oracle",
        "paths-point-on-oracle", "field-on-oracle"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_keys_the_kind_does_not_read_are_config_errors(tmp_path, capsys, text, keys,
                                                        command):
    # a config states only what its kind reads; the error names every other key
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert all(key in err["message"] for key in keys), err["message"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("text", [
    COUPLE.replace("field.name = constant", "field.name = constant, sin"),
    SOLVE.replace("terminal.name = gaussian-bump", "terminal.name = gaussian-bump, linear"),
    ORACLE.replace("oracle.name = sgn", "oracle.name = sgn, heat"),
], ids=["field", "terminal", "oracle"])
def test_a_list_of_names_is_a_config_error(tmp_path, capsys, text):
    assert main(["validate", _cfg(tmp_path, text)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config-error"


@pytest.mark.parametrize("text", [COUPLE, SOLVE, MODULUS, VALIDATE, ORACLE],
                         ids=["couple", "solve", "modulus", "validate", "oracle"])
def test_workers_one_is_accepted_by_every_kind(tmp_path, capsys, text):
    assert main(["validate", _cfg(tmp_path, text + "workers = 1\n")]) == EXIT_OK


def _benchmark_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCHMARK_WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("name", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_templates_pass_setup(name):
    # every benchmark run fills its template with a seed; a key that the
    # config rules reject would fail all of them
    cfg = validate_config(parse_config_text(BENCHMARK_WORKLOADS[name].format(seed=1000)))
    field, terminal, grid, _, zs = _setup(cfg)
    assert field.dim >= 1 and grid.steps == cfg.steps and len(zs) == len(cfg.ladder)
    assert (terminal is None) == (cfg.kind == "couple")


SOLVE_2D = SOLVE.replace("field.dim = 1", "field.dim = 2").replace(
    "base_point = 0.0", "base_point = 0.0, 0.0")


@pytest.mark.parametrize("text,key", [
    (SOLVE_2D + "field.a0 = 1.0, 2.0, 3.0\n", "a0"),
    (SOLVE_2D + "field.b0 = 0.1, 0.2, 0.3\n", "b0"),
], ids=["a0-3-entries", "b0-3-entries"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_constant_field_must_fit_dim(tmp_path, capsys, text, key, command):
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("text", [
    SOLVE_2D + "terminal.center = 0.5, 0.5, 0.5\n",
    SOLVE_2D + "terminal.center = 0.5,\n",
    SOLVE_2D.replace("kind = solve", "kind = modulus").replace(
        "n_paths = 400", "n_paths = 40") + "ladder = 0.2, 0.1\nterminal.center = 0.5,\n",
], ids=["center-3-entries", "center-1-entry", "center-1-entry-modulus"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_terminal_must_fit_the_field(tmp_path, capsys, monkeypatch, text, command):
    # a terminal center of the wrong length stops before any path is drawn
    def no_draws(*args):
        raise AssertionError("paths were simulated")

    monkeypatch.setattr(couplemc.RngStream, "uniforms", no_draws)
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert "terminal center" in err["message"]
    assert not (tmp_path / "d").exists()


def test_placement_defaults_to_origin_and_first_axis(tmp_path, capsys):
    explicit = COUPLE_2D + "base_point = 0.0, 0.0\ndirection = 1.0, 0.0\n"
    d1, d2 = tmp_path / "default", tmp_path / "explicit"
    assert main(["run", _cfg(tmp_path, COUPLE_2D, "a.cfg"),
                 "--run-dir", str(d1)]) == EXIT_OK
    assert main(["run", _cfg(tmp_path, explicit, "b.cfg"),
                 "--run-dir", str(d2)]) == EXIT_OK
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_validate(path, capsys):
    assert main(["validate", str(path)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["run", _cfg(tmp_path, SOLVE),
               "--run-dir", str(blocker / "sub")])
    assert rc == EXIT_IO


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("couplemc ")


def test_cli_import_leaves_out_quadrature():
    # quad only serves oracles, Dini checks and the Lyapunov function, so
    # a run does not pay for importing scipy.integrate
    code = "import sys, couplemc.cli; print('scipy.integrate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(couplemc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
