"""A/B comparison of two source trees with the benchmark, written to a BENCH
file.

    python3 tools/bench_ab.py --parent DIR --change DIR --out BENCH_N.json \
        --workload modulus-sin --seeds 401-410 --seconds 30

For each workload and each seed, runs ``perfbench/run.py --trace 0`` in
the parent tree and in the change tree, one after the other, alternating
which side runs first, so slow phases of the host fall on both sides.
Each run is read back from its ``record.json``.  The BENCH file holds,
per workload and end-to-end metric, each side's runs, median and
quartiles, and how many pairs the change won; and, per workload, whether
the ``results.csv`` hashes agree on every config seed both sides ran.  An
existing BENCH file is updated: the workloads of this call replace their
old entries, the others stay.  Standard library only; ``perfbench/`` is
run, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '401,405,409' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def end_to_end(tree: str) -> dict:
    """name -> (unit, better) of the end-to-end metrics BENCHMARK.json declares."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree; its record.json, or the error it hit."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    path = os.path.join(tree, ".perfbench_out", f"{workload}-seed{seed}-trace0",
                        "record.json")
    with open(path) as fh:
        record = json.load(fh)
    record["elapsed_s"] = time.monotonic() - start
    return record


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of values."""
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(workload: str, pairs: list[dict], metrics: dict) -> dict:
    """The BENCH entry of one workload from its (parent, change) record pairs."""
    out = {"pairs": len(pairs), "seeds": [p["parent"]["seed"] for p in pairs],
           "metrics": {}}
    for name, (unit, better) in metrics.items():
        runs = {side: [p[side]["metrics"].get(name) for p in pairs] for side in SIDES}
        both = [(a, b) for a, b in zip(runs["parent"], runs["change"])
                if a is not None and b is not None]
        if not both:
            continue
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in both)
        entry = {"unit": unit, "better": better, "change_wins": wins,
                 "compared_pairs": len(both)}
        for side in SIDES:
            vals = [v for v in runs[side] if v is not None]
            entry[side] = {**summary(vals), "runs": runs[side]}
        p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
        entry["relative_change"] = (c_med - p_med) / p_med if p_med else None
        out["metrics"][name] = entry
    hashes = {side: {} for side in SIDES}
    for p in pairs:
        for side in SIDES:
            hashes[side].update({s: h for s, h in p[side]["results_sha256"]})
    shared = sorted(set(hashes["parent"]) & set(hashes["change"]))
    differing = [s for s in shared if hashes["parent"][s] != hashes["change"][s]]
    out["hashes"] = {"shared_config_seeds": len(shared), "equal": not differing,
                     "differing_config_seeds": differing}
    out["failed_rungs"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["correct"] = {side: all(p[side]["correct"] for p in pairs) for side in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree of the parent")
    ap.add_argument("--change", required=True, help="source tree of the change")
    ap.add_argument("--out", required=True, help="BENCH file to write")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 401-410")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    metrics = end_to_end(trees["change"])
    seeds = parse_seeds(args.seeds)
    # a workload already in the file is kept unless this call runs it again
    bench = {"seconds": args.seconds, "workloads": {}, "errors": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
        if bench["seconds"] != args.seconds:
            ap.error(f"{args.out} holds {bench['seconds']} s runs, not {args.seconds} s")
    errors = []
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(trees[side], workload, seed, args.seconds)
                    for side in order}
            bad = [f"{workload} seed {seed} {side}: {pair[side]['error']}"
                   for side in SIDES if "error" in pair[side]]
            if bad:
                errors.extend(bad)
                continue
            pairs.append(pair)
            wall = {side: pair[side]["metrics"].get("wall_s") for side in SIDES}
            print(f"{workload} seed {seed}: wall_s parent {wall['parent']:.4g}, "
                  f"change {wall['change']:.4g}", flush=True)
        if pairs:
            bench["workloads"][workload] = compare(workload, pairs, metrics)
    bench["errors"] = [e for e in bench["errors"]
                       if e.split(" ", 1)[0] not in args.workload] + errors
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload in args.workload:
        entry = bench["workloads"].get(workload)
        if entry is None:
            continue
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} "
                  f"(IQR {m['parent']['q1']:.4g}-{m['parent']['q3']:.4g}) -> change "
                  f"{m['change']['median']:.4g} {m['unit']}, change won "
                  f"{m['change_wins']}/{m['compared_pairs']}")
        print(f"{workload} hashes equal on {entry['hashes']['shared_config_seeds']} "
              f"shared config seeds: {entry['hashes']['equal']}")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
