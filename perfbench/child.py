"""Workload process of the benchmark.  run.py starts it in a fresh
interpreter with the package's ``src`` directory on ``PYTHONPATH``.

    child.py setup CONFIG
        Times ``import couplemc.cli`` and loading CONFIG (parse, validate,
        build the field and terminal); prints one JSON line.

    child.py measure TEMPLATE OUT_DIR FIRST_SEED SECONDS TRACE MIN_REPS
        Runs the config text TEMPLATE, with seed FIRST_SEED, FIRST_SEED + 1,
        ..., through ``couplemc.cli.run_experiment`` back to back for about
        SECONDS seconds, at least MIN_REPS times.  With TRACE 1 each seed
        runs twice, untraced then traced.  Prints one JSON line with each
        repetition's seed, timings, results.csv hash and rows, the tracer's
        layer times and counters, and the peak RSS of this process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import couplemc.cli as cli
    t1 = time.perf_counter()
    out = {"module": os.path.abspath(cli.__file__)}
    try:
        cfg = cli.load_config(config_path)
        if cfg.field_name is not None:
            cli.build_field(cfg.field_name, cfg.field_params)
        if cfg.terminal_name is not None:
            cli.build_terminal(cfg.terminal_name, cfg.terminal_params)
    except cli.CoupleMCError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    return {**out, "import_s": t1 - t0, "load_s": t2 - t1}


def _one_rep(cli, config_path, run_dir, tracer=None) -> dict:
    """Load and run one config.  Whatever the package raises is recorded as
    a failed repetition, so one failure does not end the measurement."""
    rep = {"traced": tracer is not None}
    try:
        cfg = cli.load_config(config_path)
    except cli.CoupleMCError as exc:
        return {**rep, "error": f"{type(exc).__name__}: {exc}",
                "wall_s": 0.0, "cpu_s": 0.0}
    if tracer is not None:
        rep["untraced_entry_points"] = tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        cli.run_experiment(cfg, os.path.dirname(run_dir), run_dir=run_dir)
    except Exception as exc:  # the measuring loop must keep running
        rep["error"] = f"{type(exc).__name__}: {exc}"
        rep["traceback"] = traceback.format_exc()
    finally:
        rep["wall_s"] = time.perf_counter() - t0
        rep["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.remove()
    if "error" not in rep:
        with open(os.path.join(run_dir, "results.csv"), "rb") as fh:
            data = fh.read()
        rep["sha256"] = hashlib.sha256(data).hexdigest()
        rep["rows"] = list(csv.reader(io.StringIO(data.decode())))
    if tracer is not None:
        rep["layers"] = tracer.layer_times()
        rep["counts"] = dict(tracer.counts)
    return rep


def _measure(template_path, out_dir, first_seed, seconds, trace, min_reps) -> dict:
    import couplemc.cli as cli
    from tracer import Tracer

    with open(template_path) as fh:
        template = fh.read()
    reps, first_tracer = [], None
    start = time.perf_counter()
    seed = first_seed
    # stop before the next seed would overrun the measuring window
    while len(reps) < min_reps or (
            time.perf_counter() - start
            + (time.perf_counter() - start) / (seed - first_seed) <= seconds):
        config_path = os.path.join(out_dir, f"config-{seed}.cfg")
        with open(config_path, "w") as fh:
            fh.write(template.format(seed=seed))
        reps.append({"seed": seed, **_one_rep(
            cli, config_path, os.path.join(out_dir, "plain"))})
        if trace:
            tracer = Tracer()
            first_tracer = first_tracer or tracer
            reps.append({"seed": seed, **_one_rep(
                cli, config_path, os.path.join(out_dir, "traced"), tracer)})
        seed += 1
        if len(reps) >= min_reps and all("error" in r for r in reps):
            break  # nothing runs, so there is nothing to time
    if first_tracer is not None:
        first_tracer.write(os.path.join(out_dir, "spans.jsonl"))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "peak_rss_mb": rss_kb / 1024.0,
            "measured_s": time.perf_counter() - start}


def main(argv) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if argv[0] == "setup":
        out = _setup(argv[1])
    else:
        template, out_dir, first_seed, seconds, trace, min_reps = argv[1:7]
        out = _measure(template, out_dir, int(first_seed), float(seconds),
                       trace == "1", int(min_reps))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
