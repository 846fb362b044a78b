import json
import os
import subprocess
import sys

import pytest

import couplemc
from couplemc.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main)

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
    assert main(["oracle", sgn, "--run-dir", str(d1)]) == EXIT_OK
    assert main(["oracle", heat, "--run-dir", str(d2)]) == EXIT_OK
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
    rc = main(["oracle", _cfg(tmp_path, text), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


def test_oracle_subcommand_requires_oracle_kind(tmp_path, capsys):
    rc = main(["oracle", _cfg(tmp_path, SOLVE)])
    assert rc == EXIT_CONFIG


def test_report_emits_fits(tmp_path, capsys):
    cfg = _cfg(tmp_path, COUPLE)
    d = tmp_path / "rep"
    assert main(["run", cfg, "--run-dir", str(d)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(d)]) == EXIT_OK
    fits = json.loads(capsys.readouterr().out)
    assert "tau_power_fit" in fits
    assert 0.5 < fits["tau_power_fit"]["slope"] < 1.5
    # run and report share one fit path
    summary = json.loads((d / "summary.json").read_text())
    assert fits == {"tau_power_fit": summary["tau_power_fit"]}


def test_diverged_exit_code(tmp_path, capsys):
    bad = SOLVE.replace("field.dim = 1", "field.dim = 1\nfield.b0 = 1e308")
    bad = bad.replace("grid.horizon = 0.5", "grid.horizon = 4.0")
    rc = main(["run", _cfg(tmp_path, bad), "--run-dir", str(tmp_path / "d")])
    assert rc == EXIT_DIVERGED
    assert "simulation-diverged" in capsys.readouterr().err


COUPLE_2D = COUPLE.replace("field.dim = 1", "field.dim = 2").replace(
    "n_paths = 600", "n_paths = 100").replace("grid.steps = 200", "grid.steps = 50")


@pytest.mark.parametrize("text,key", [
    (COUPLE_2D + "base_point = 0.5\n", "base_point"),
    (COUPLE_2D + "direction = 1.0\n", "direction"),
    (COUPLE_2D + "direction = 1.0, 0.0, 0.0\n", "direction"),
    (COUPLE + "direction = 0.0\n", "direction"),
    (COUPLE_2D + "direction = 0.0, 0.0\n", "direction"),
    (COUPLE + "direction = inf\n", "direction"),
    (COUPLE + "base_point = nan\n", "base_point"),
    (SOLVE.replace("base_point = 0.0", "base_point = 0.0, 0.0"), "base_point"),
], ids=["short-point-2d", "short-direction-2d", "long-direction-2d",
        "zero-direction-1d", "zero-direction-2d", "inf-direction",
        "nan-point", "long-point-solve"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_placement_must_fit_the_field(tmp_path, capsys, text, key, command):
    # a point or direction that does not fit field.dim is not broadcast,
    # and a zero direction is not reported as a divergence
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
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
], ids=["inf-horizon-solve", "nan-horizon-couple", "nan-tol", "negative-tol",
        "two-workers", "inf-steps", "fractional-steps", "nan-paths", "nan-ladder",
        "inf-ladder", "word-horizon", "word-ladder", "word-point", "word-direction",
        "word-eval-horizon", "word-tol", "word-a0", "word-c0", "word-center"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_scalars_out_of_range_are_config_errors(tmp_path, capsys, text, key, command):
    # a horizon or tolerance that is not finite is neither a divergence nor
    # a value in the table, and workers takes no value but 1
    run_dir = ["--run-dir", str(tmp_path / "d")] if command == "run" else []
    rc = main([command, _cfg(tmp_path, text)] + run_dir)
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert key in err["message"]
    assert not (tmp_path / "d").exists()


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
