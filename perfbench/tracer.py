"""Outside-in tracing of couplemc: spans and counters recorded by wrapping
the package's public entry points from the benchmark's side.

Every entry point is wrapped at each module attribute that binds it (for
example ``ndtri`` is bound in both ``sde_engine`` and ``coupling``), so a
call is traced whichever module makes it.  Spans are kept in memory as
``[name, start, end, parent]`` records and written out when the run ends.
A span's self time is its duration minus the durations of its direct
children.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer); the span is named "module.attribute".  The
# layer is the bucket the span's self time is reported under; see
# layer_metrics in run.py.  The single-leg and the pair step kernel share
# the "kernel" layer: a workload runs one of them.
ENTRY_POINTS = (
    ("cli", "run_experiment", "io"),
    ("sde_engine", "ndtri", "ndtri"),
    ("sde_engine", "sigma_batch", "coefficients"),
    ("sde_engine", "simulate_terminal", "kernel"),
    ("sde_engine", "run_path_blocks", "blocks"),
    ("sde_engine", "mean_stderr", "reduce"),
    ("coupling", "simulate_coupled_block", "kernel"),
    ("coupling", "coupling_times", "reduce"),
    ("coupling", "coupling_time_expectation", "reduce"),
    ("fk_solver", "solve_u", "reduce"),
    ("fk_solver", "solve_difference_coupled", "reduce"),
    ("fk_solver", "modulus_experiment", "reduce"),
    ("fk_solver", "fit_result_table", "reduce"),
    ("analysis", "fit_power_law", "reduce"),
    ("analysis", "fit_log_corrected", "reduce"),
    ("registry", "build_field", "config"),
    ("registry", "build_terminal", "config"),
)

RNG_METHODS = (("uniforms", "sde_engine.RngStream.uniforms"),
               ("normals", "sde_engine.RngStream.normals"))
FIELD_CALLABLES = ("a", "b", "c", "sigma")


class Tracer:
    """Import the package, ``install()``, run the workload, ``remove()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.layer_of: dict[str, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, count=None):
        """A span-recording stand-in for fn; count(args, kwargs, result) is
        called after each call to update the counters."""
        self.layer_of[name] = layer
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value):
        old = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._undo.append((owner, key, old))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _rebind(self, modules, orig, replacement) -> None:
        """Point every module attribute bound to orig at replacement."""
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, replacement)

    def install(self) -> list[str]:
        """Wrap the entry points of the imported package; returns the names
        of entry points that were not found (they are simply not traced)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "couplemc" or n.startswith("couplemc."))]
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        missing = []
        for mod_name, attr, layer in ENTRY_POINTS:
            name = f"{mod_name}.{attr}"
            orig = getattr(mod.get(mod_name), attr, None)
            if orig is None:
                missing.append(name)
                continue
            fn, count = self._adapt(name, orig)
            self._rebind(modules, orig, self.wrap(name, layer, fn, count))

        cli = mod.get("cli")
        for kind, runner in list(getattr(cli, "_RUNNERS", {}).items()):
            self._set(cli._RUNNERS, kind, self.wrap(f"cli.run_{kind}", "cli", runner))

        sde = mod.get("sde_engine")
        rng_cls = getattr(sde, "RngStream", None)
        for attr, name in RNG_METHODS:
            meth = getattr(rng_cls, attr, None)
            if meth is None:
                missing.append(name)
                continue
            count = self._count_uniforms if attr == "uniforms" else None
            self._set(rng_cls, attr, self.wrap(name, "rng", meth, count))

        philox = getattr(sde, "Philox", None)
        if philox is None:
            missing.append("sde_engine.Philox")
        else:
            def counted_philox(*args, **kwargs):
                self.counts["philox_inits"] += 1
                return philox(*args, **kwargs)
            self._set(sde, "Philox", counted_philox)
        return missing

    def remove(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- entry-point specific wrappers and counters --------------------------

    def _count_uniforms(self, args, kwargs, out):
        self.counts["uniforms"] += int(out.size)

    def _adapt(self, name, orig):
        """The function to trace for an entry point, and its counter."""
        if name == "registry.build_field":
            return self._field_builder(orig), None
        if name == "registry.build_terminal":
            return self._terminal_builder(orig), None
        if name == "sde_engine.run_path_blocks":
            return self._block_runner(orig), None
        if name == "sde_engine.simulate_terminal":
            sig = inspect.signature(orig)

            def count(args, kwargs, out):
                bound = sig.bind(*args, **kwargs).arguments
                n = int(bound["path_hi"]) - int(bound["path_lo"])
                self.counts["path_steps"] += n * int(bound["grid"].steps)
            return orig, count
        return orig, None

    def _field_builder(self, build_field):
        def build(*args, **kwargs):
            field = build_field(*args, **kwargs)
            wrapped = {}
            for attr in FIELD_CALLABLES:
                fn = getattr(field, attr, None)
                if fn is not None:
                    wrapped[attr] = self.wrap(f"coefficients.{attr}", "coefficients",
                                              fn, self._count_points)
            return dataclasses.replace(field, **wrapped)
        return build

    def _count_points(self, args, kwargs, out):
        self.counts["points"] += len(args[1])

    def _terminal_builder(self, build_terminal):
        def build(*args, **kwargs):
            term = build_terminal(*args, **kwargs)
            return dataclasses.replace(
                term, fn=self.wrap("registry.terminal", "reduce", term.fn))
        return build

    def _block_runner(self, run_path_blocks):
        def run(n_paths, worker, *args, **kwargs):
            def count(a, k, out):
                self.counts["blocks"] += 1
            return run_path_blocks(
                n_paths, self.wrap("sde_engine.block_worker", "reduce", worker, count),
                *args, **kwargs)
        return run

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return dict(out)

    def layer_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_times().items():
            out[self.layer_of[name]] += s
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span: id, parent, name, start, end (s)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0 - base, "end": t1 - base}))
                fh.write("\n")
