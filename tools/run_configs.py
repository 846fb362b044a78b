"""Runs each shipped config through ``couplemc run`` in a fresh process and
prints that process's peak resident memory, the in-run wall time and the
results.csv and summary.json hashes.

    python3 tools/run_configs.py [CONFIG ...]

Without arguments it runs every ``configs/*.cfg`` of the checkout, with
``src/`` first on the import path, so no install is needed.  The first
row, ``(import)``, is the peak RSS of a child that only imports
``couplemc.cli``: a config's run memory is its peak minus that baseline.
For each config it prints the exit status, the peak RSS of the child
process (from ``os.wait4``), ``wall_time_s`` from the run's summary.json
(the time of the experiment itself, without interpreter start-up and
imports), the child's elapsed time, the first 12 hex digits of the
sha256 of its results.csv, the digits ROADMAP.md lists, and the same
digits of its summary.json without ``wall_time_s``, taken as canonical
JSON (sorted keys), which changes when the config echo or a fit does.  The run
directories go to a temporary directory that is removed afterwards.
Information only: it exits 0 unless a run fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_child(args: list[str]) -> dict:
    """``python args`` in a child process with src/ first on its import
    path: its exit status, peak RSS, elapsed time and, on failure, the end
    of its stderr."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    # wait4 reaps the child and reports its own peak RSS, not the parent's
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss_mb = usage.ru_maxrss / (1024 * 1024 if sys.platform == "darwin" else 1024)
    out = {"exit": proc.returncode, "peak_rss_mb": rss_mb, "process_s": elapsed,
           "wall_time_s": None, "sha12": None, "summary12": None}
    if proc.returncode != 0:
        out["error"] = err.decode(errors="replace").strip()[-500:]
    return out


def run_config(config: str, run_dir: str) -> dict:
    """One ``couplemc run`` of config into run_dir in a child process."""
    out = run_child(["-m", "couplemc.cli", "run", config, "--run-dir", run_dir])
    if out["exit"] != 0:
        return out
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    out["wall_time_s"] = summary.pop("wall_time_s")
    out["summary12"] = sha12(json.dumps(summary, sort_keys=True).encode())
    with open(os.path.join(run_dir, "results.csv"), "rb") as fh:
        out["sha12"] = sha12(fh.read())
    return out


def sha12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("configs", nargs="*",
                    help="config files (default: configs/*.cfg of the checkout)")
    args = ap.parse_args(argv)
    configs = args.configs or sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
    print(f"{'config':<18} {'exit':>4} {'peak_rss_mb':>11} {'wall_time_s':>11} "
          f"{'process_s':>9}  {'results.csv':<12}  summary.json")
    failed = 0

    def report(name: str, r: dict) -> None:
        nonlocal failed
        wall = "-" if r["wall_time_s"] is None else f"{r['wall_time_s']:.3f}"
        print(f"{name:<18} {r['exit']:>4} {r['peak_rss_mb']:>11.2f} {wall:>11} "
              f"{r['process_s']:>9.3f}  {r['sha12'] or '-':<12}  {r['summary12'] or '-'}",
              flush=True)
        if r["exit"] != 0:
            failed += 1
            print(f"  {r['error']}", file=sys.stderr)

    report("(import)", run_child(["-c", "import couplemc.cli"]))
    with tempfile.TemporaryDirectory(prefix="couplemc-configs-") as tmp:
        for i, config in enumerate(configs):
            name = os.path.splitext(os.path.basename(config))[0]
            report(name, run_config(os.path.abspath(config), os.path.join(tmp, f"{i}-{name}")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
