"""Small-size self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

For every workload, with the fewest repetitions a run makes (a smaller
path count would leave the 3 SE bands too few samples on the rare
uncoupled pairs that carry the modulus variance), it checks that
  * every metric BENCHMARK.json names is printed with its unit, untraced
    and traced;
  * every reference band passes;
  * two same-seed traced runs give identical counters and the same
    results.csv hash as the untraced run, for the config seed they share.
It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

SEED = 20240
COUNTERS = ("sde_engine.philox_inits", "sde_engine.uniforms",
            "sde_engine.path_steps", "sde_engine.blocks",
            "coupling.pair_steps", "coefficients.points")


def _metric_names(bench: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in bench[key]}


def _run(name: str, trace: int) -> tuple[dict, dict]:
    """The printed result line and the run's record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}")
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    with open(os.path.join(run.OUT_ROOT, f"{name}-seed{SEED}-trace{trace}",
                           "record.json")) as fh:
        return result, json.load(fh)


def check_workload(name: str, bench: dict) -> list[str]:
    bad = []
    plain, plain_rec = _run(name, 0)
    traced, traced_recs = zip(*(_run(name, 1) for _ in range(2)))
    for result, key in ((plain, "end_to_end"), (traced[0], "per_layer")):
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        if printed != _metric_names(bench, key):
            bad.append(f"{name}: printed {key} metrics {printed} are not "
                       f"{_metric_names(bench, key)}")
    for result in (plain, *traced):
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            bad.append(f"{name}: {result['failed']} of {result['attempted']} "
                       "rungs failed")
    for c in COUNTERS:
        values = [t["metrics"][c]["value"] for t in traced]
        if values[0] != values[1]:
            bad.append(f"{name}: {c} differs between same-seed runs: {values}")
    # every run starts at the same config seed
    first = SEED * run.SEEDS_PER_RUN
    hashes = [dict(rec["results_sha256"]).get(first)
              for rec in (plain_rec, *traced_recs)]
    if None in hashes or len(set(hashes)) != 1:
        bad.append(f"{name}: results.csv hashes for seed {first} differ: {hashes}")
    print(f"{name}: {'ok' if not bad else 'FAIL'} (seed {first} sha256 "
          f"{(hashes[0] or '-')[:12]})")
    return bad


def check_refuses_without_sources(root: str) -> list[str]:
    """The benchmark alone, without the package, must fail and print no
    result."""
    bare = os.path.join(root, run.OUT_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark ran without the package sources"]
    print("without sources: ok (exit code", proc.returncode, ")")
    return []


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    run.OUT_ROOT = os.path.join(run.OUT_ROOT, "selftest")
    run.SETUP_PROBES = 1
    bad = []
    for w in bench["workloads"]:
        bad += check_workload(w["name"], bench)
    run.OUT_ROOT = os.path.dirname(run.OUT_ROOT)
    bad += check_refuses_without_sources(root)
    for line in bad:
        print("FAIL:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
