"""couplemc benchmark: one workload, one seed, measured end to end or layer
by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src`` and writes only under ``.perfbench_out``.  The workload's config
text is generated from the seed and run in a fresh process (one client,
closed loop, ``workers = 1``) through ``couplemc.cli.run_experiment``,
repeated back to back for about S seconds; repetition i runs config seed
1000 N + i.  Every estimate is checked against an independent reference.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (rungs, over all repetitions) and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SEEDS_PER_RUN = 1000    # repetition i of run N uses config seed 1000 N + i
SETUP_PROBES = 5        # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 170.0     # deadline for the whole run, set-up probes included
REL_TOL = 0.01          # time_to_tol_s targets 1% relative standard error


# config text per workload; {seed} is filled in per repetition
WORKLOADS = {
    # Many paths on a short grid with full batches: per-(path, chunk)
    # Philox setup dominates and no coupling code runs.
    "solve-2d": """\
kind = solve
seed = {seed}
workers = 1
field.name = constant
field.dim = 2
field.a0 = 1.0
terminal.name = gaussian-bump
terminal.width = 1.0
grid.horizon = 0.5
grid.steps = 500
n_paths = 20000
base_point = 0.0, 0.0
""",
    # A long grid with a fast-shrinking survivor set: per-step interpreter
    # overhead, ndtri and draws discarded after coupling dominate.
    "couple-1d": """\
kind = couple
seed = {seed}
workers = 1
field.name = constant
field.dim = 1
field.a0 = 1.0
grid.horizon = 1.0
grid.steps = 10000
n_paths = 6000
ladder = 0.2, 0.1, 0.05
base_point = 0.0
direction = 1.0
""",
    # Both legs carried to the horizon with c-integrals, bridge test in
    # terminal mode, and a non-constant sigma evaluated on both legs.
    "modulus-sin": """\
kind = modulus
seed = {seed}
workers = 1
field.name = sin
field.dim = 1
field.amp = 0.5
terminal.name = gaussian-bump
terminal.center = 0.0
terminal.width = 1.0
grid.horizon = 1.0
grid.steps = 1000
n_paths = 6000
ladder = 0.2, 0.1, 0.05
base_point = 0.1
direction = 1.0
""",
}

UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "time_to_tol_s": "s",
    "sde_engine.rng_s": "s", "sde_engine.philox_inits": "count",
    "sde_engine.uniforms": "count", "sde_engine.ns_per_uniform": "ns",
    "sde_engine.ndtri_s": "s", "sde_engine.path_steps": "count",
    "sde_engine.blocks": "count",
    "kernel.self_s": "s", "kernel.ns_per_step": "ns",
    "coupling.pair_steps": "count", "coupling.draw_efficiency": "ratio",
    "coefficients.eval_s": "s", "coefficients.points": "count",
    "fk_solver.reduce_s": "s", "cli.io_s": "s",
    "setup.import_s": "s", "config.load_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage": "ratio",
}
# tracer layers whose self time a per-layer metric reports
REPORTED_LAYERS = ("rng", "ndtri", "kernel", "coefficients", "reduce", "io")


def parse_config(text: str) -> dict:
    """The workload's own view of its config (flat key = value lines)."""
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


# -- correctness ------------------------------------------------------------

def _table(rows: list[list[str]]) -> list[dict]:
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def rung_estimates(kind: str, rows: list[list[str]]) -> list[tuple[str, float, float]]:
    """(label, estimate, stderr) per rung of one results.csv."""
    table = _table(rows)
    if kind == "solve":
        return [("u(T,x)", float(table[0]["estimate"]), float(table[0]["stderr"]))]
    est, se = ("mean_tau_capped", "stderr") if kind == "couple" \
        else ("delta_u", "stderr_u")
    return [(f"r={float(r['distance']):g}", float(r[est]), float(r[se]))
            for r in table]


def references(kind: str, cfg: dict) -> list[tuple[float, float]]:
    """(reference, band allowance beyond 3 SE) per rung: the closed form
    for solve, the exact Brownian coupling oracle for couple, and a
    Crank-Nicolson solve for modulus."""
    horizon = float(cfg["grid.horizon"])
    if kind == "solve":
        from reference import gaussian_bump_constant_field
        return [(gaussian_bump_constant_field(int(cfg["field.dim"]), horizon), 1e-3)]
    dist = [float(d) for d in cfg["ladder"].split(",")]
    if kind == "couple":
        from couplemc.oracles import bm_coupling_expectation
        refs = [bm_coupling_expectation(d, horizon) for d in dist]
    else:
        from reference import sin_field_solution
        x0 = float(cfg["base_point"])
        u = sin_field_solution([x0] + [x0 + d for d in dist],
                               float(cfg["field.amp"]), horizon)
        refs = [float(abs(u[0] - v)) for v in u[1:]]
    return [(ref, 0.02 * ref) for ref in refs]


@dataclass
class Rung:
    """One rung pooled over the repetitions of a run (independent seeds,
    equal path counts)."""

    label: str
    estimate: float     # mean over repetitions
    stderr: float       # of that mean
    stderr_one: float   # of one repetition's estimate
    reference: float
    band: float         # 3 stderr + allowance
    ok: bool


def pool_rungs(kind: str, refs: list, tables: list[list[list[str]]]) -> list[Rung]:
    per_rep = [rung_estimates(kind, rows) for rows in tables]
    out = []
    for j, (ref, allowance) in enumerate(refs):
        ests = [rep[j][1] for rep in per_rep]
        se_one = math.sqrt(statistics.fmean(rep[j][2] ** 2 for rep in per_rep))
        est, se = statistics.fmean(ests), se_one / math.sqrt(len(ests))
        band = 3.0 * se + allowance
        out.append(Rung(per_rep[0][j][0], est, se, se_one, ref, band,
                        abs(est - ref) <= band))
    return out


def useful_draws(kind: str, cfg: dict, rows: list[list[str]]) -> tuple[int, int]:
    """(useful pair-steps, uniforms the paths needed), from results.csv.

    A pair runs min(tau, t) / dt steps, which the tau_mean /
    mean_tau_capped column gives summed over pairs.  In 1D a pair step
    uses a normal and a bridge uniform; in terminal mode the X leg still
    needs its normal after the pair has met.  A solve path uses d normals
    per step.
    """
    n, steps = int(cfg["n_paths"]), int(cfg["grid.steps"])
    if kind == "solve":
        return 0, n * steps * int(cfg["field.dim"])
    dt = float(cfg["grid.horizon"]) / steps
    tau = "mean_tau_capped" if kind == "couple" else "tau_mean"
    table = _table(rows)
    pair_steps = sum(round(float(r[tau]) * n / dt) for r in table)
    if kind == "couple":
        return pair_steps, 2 * pair_steps
    return pair_steps, n * steps * len(table) + pair_steps


# -- processes ----------------------------------------------------------------

def _child(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline reached")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(config_path: str, env: dict, src: str, deadline: float) -> dict:
    """Median over fresh interpreters, after one that fills the bytecode
    cache; each probe must import the package from this checkout."""
    probes = []
    for i in range(SETUP_PROBES + 1):
        p = _child(["setup", config_path], env, deadline)
        if not p["module"].startswith(src + os.sep):
            raise RuntimeError(f"couplemc imported from {p['module']}, not {src}")
        if i:
            probes.append(p)
    med = statistics.median
    return {"setup_s": med(p["import_s"] + p["load_s"] for p in probes),
            "setup.import_s": med(p["import_s"] for p in probes),
            "config.load_s": med(p["load_s"] for p in probes)}


# -- the run ------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "couplemc", "cli.py")):
        raise FileNotFoundError(f"no couplemc sources under {src}")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    env = dict(os.environ, PYTHONPATH=src)

    text = WORKLOADS[workload]
    first_seed = SEEDS_PER_RUN * seed
    cfg = parse_config(text)
    kind = cfg["kind"]
    out_dir = os.path.join(root, OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    template = os.path.join(out_dir, "config.template")
    with open(template, "w") as fh:
        fh.write(text)
    config_path = os.path.join(out_dir, f"config-{first_seed}.cfg")
    with open(config_path, "w") as fh:
        fh.write(text.format(seed=first_seed))

    setup = measure_setup(config_path, env, src, deadline)
    child = _child(["measure", template, out_dir, str(first_seed), repr(seconds),
                    "1" if trace else "0", "2" if trace else "3"], env, deadline)

    reps = child["reps"]
    plain = [r for r in reps if not r["traced"]]
    good = [r for r in plain if "error" not in r]
    problems = sorted({r["error"] for r in reps if "error" in r})
    plain_hash = {r["seed"]: r["sha256"] for r in good}
    for r in reps:
        if r["traced"] and "sha256" in r and r["sha256"] != plain_hash.get(r["seed"]):
            problems.append(f"seed {r['seed']}: traced results.csv differs")
    refs = references(kind, cfg)
    rungs = pool_rungs(kind, refs, [r["rows"] for r in good]) if good else []
    # a rung fails in every repetition that raised, and in every repetition
    # when the pooled estimate misses its reference band
    attempted = len(refs) * len(reps)
    failed = attempted - sum(r.ok for r in rungs) * sum("error" not in r for r in reps)

    metrics = {}
    if plain:
        wall = statistics.fmean(r["wall_s"] for r in plain)
        metrics = {"wall_s": wall, "setup_s": setup["setup_s"],
                   "cpu_s": statistics.fmean(r["cpu_s"] for r in plain),
                   "peak_rss_mb": child["peak_rss_mb"]}
        if rungs:
            metrics["time_to_tol_s"] = wall * max(
                (r.stderr_one / (REL_TOL * abs(r.reference))) ** 2 for r in rungs)
    if trace:
        traced = [r for r in reps if r["traced"] and "error" not in r]
        metrics = layer_metrics(kind, cfg, traced, metrics.get("wall_s"),
                                setup) if traced else {}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "results_sha256": [[s, h] for s, h in sorted(plain_hash.items())],
        "correct": failed == 0 and not problems, "attempted": attempted,
        "failed": failed, "problems": problems,
        "rungs": [asdict(r) for r in rungs],
        "repetitions": [{k: v for k, v in r.items() if k != "rows"} for r in reps],
        "setup": setup, "metrics": metrics,
        "measured_s": child["measured_s"], "run_s": time.monotonic() - start,
    }
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def layer_metrics(kind: str, cfg: dict, traced: list[dict], plain_wall,
                  setup: dict) -> dict:
    """Per-layer metrics: mean self times over the traced repetitions;
    counters from the first, whose seed every run with this --seed has."""
    mean = statistics.fmean

    def layer(name):
        return mean(r["layers"].get(name, 0.0) for r in traced)

    counts = traced[0]["counts"]
    pair_steps, useful = useful_draws(kind, cfg, traced[0]["rows"])
    path_steps = counts.get("path_steps", 0)
    uniforms = counts.get("uniforms", 0)
    times = {name: layer(name) for name in REPORTED_LAYERS}
    traced_wall = mean(r["wall_s"] for r in traced)
    kernel_steps = pair_steps if kind != "solve" else path_steps
    return {
        "sde_engine.rng_s": times["rng"],
        "sde_engine.philox_inits": counts.get("philox_inits", 0),
        "sde_engine.uniforms": uniforms,
        "sde_engine.ns_per_uniform": 1e9 * times["rng"] / uniforms if uniforms else 0.0,
        "sde_engine.ndtri_s": times["ndtri"],
        "sde_engine.path_steps": path_steps,
        "sde_engine.blocks": counts.get("blocks", 0),
        "kernel.self_s": times["kernel"],
        "kernel.ns_per_step":
            1e9 * times["kernel"] / kernel_steps if kernel_steps else 0.0,
        "coupling.pair_steps": pair_steps,
        "coupling.draw_efficiency": useful / uniforms if uniforms else 0.0,
        "coefficients.eval_s": times["coefficients"],
        "coefficients.points": counts.get("points", 0),
        "fk_solver.reduce_s": times["reduce"],
        "cli.io_s": times["io"],
        "setup.import_s": setup["setup.import_s"],
        "config.load_s": setup["config.load_s"],
        "trace.overhead_frac":
            (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0,
        # self time left in unreported spans (runner, block loop, field
        # construction) or outside any span lowers the coverage
        "trace.coverage": sum(times.values()) / traced_wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for r in rec["rungs"]:
        print(f"{args.workload} {r['label']}: estimate {r['estimate']:.6g} "
              f"+- {r['stderr']:.2g}, reference {r['reference']:.6g}, "
              f"band {r['band']:.2g} {'ok' if r['ok'] else 'FAIL'}")
    for p in rec["problems"]:
        print(f"{args.workload}: {p}")
    for s, h in rec["results_sha256"]:
        print(f"{args.workload} config seed {s}: results.csv sha256 {h}")
    for name, value in rec["metrics"].items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
