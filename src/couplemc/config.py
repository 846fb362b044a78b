"""Flat key = value experiment configs.

One experiment per file; dotted keys form sections, e.g.::

    kind = couple
    seed = 42
    field.name = constant
    field.dim = 1
    grid.horizon = 1.0
    grid.steps = 1000
    n_paths = 10000
    ladder = 0.2, 0.1, 0.05

Lists are comma separated; '#' starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ConfigError
from .registry import FIELD_BUILDERS, TERMINAL_BUILDERS, is_finite_real

KINDS = ("couple", "solve", "modulus", "oracle", "validate")
# each oracle's oracle.* keys and defaults; a default's type is its key's:
# int a count, list a list of numbers, float a real
_Y_GRID = {"y_min": -8.0, "y_max": 8.0, "y_count": 161}
ORACLES = {
    "sgn": {"t": 1.0, "theta": 1.0, "x": 0.0, **_Y_GRID},
    "heat": {"t": 1.0, "a0": 1.0, "b0": 0.0, "x": 0.0, **_Y_GRID},
    "running-max": {"t": 1.0, "c1": 1.0, "c2": 1.0, "x_values": [0.5, 1.0, 2.0]},
    "bm-coupling": {"t": 1.0, "d0_values": [0.2, 0.1, 0.05]},
}


def _parse_scalar(tok: str):
    tok = tok.strip()
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def parse_config_text(text: str) -> dict:
    """Parse the flat format into a {dotted key: value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        val = val.strip()
        if "," in val:
            out[key] = [_parse_scalar(t) for t in val.split(",") if t.strip()]
        elif val == "":
            out[key] = None
        else:
            out[key] = _parse_scalar(val)
    return out


def _section(raw: dict, prefix: str) -> dict:
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in raw.items() if k.startswith(prefix + ".")}


def _count(key: str, v) -> int:
    """v as a positive int: an integer, or a float with an integral value;
    anything else (0, 2.5, inf, nan, a word) is a config error naming key."""
    integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not integral or v < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
    return int(v)


def _real(key: str, v) -> float:
    """v as a float; anything but a finite number (a word, a list, true,
    nan, inf) is a config error naming key.  Range checks are the caller's."""
    if not is_finite_real(v):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _reals(key: str, v) -> tuple:
    """v, one number or a comma list of them, as a tuple of floats; a word,
    nan or inf among them, or no value, is a config error naming key."""
    vals = v if isinstance(v, list) else [v]
    if not all(map(is_finite_real, vals)):
        raise ConfigError(f"{key} must be a list of finite numbers, got {v!r}")
    return tuple(float(x) for x in vals)


# The keys each kind reads; every kind reads kind, seed and workers, and
# any other key is a config error.  KEYS gives a top-level key's reader and
# kinds; its value sets the ExperimentConfig attribute named by its last
# dotted part (grid.steps -> steps).
_PATHS = ("couple", "solve", "modulus")
KEYS = {
    "grid.horizon": (_real, (*_PATHS, "validate")),
    "grid.steps": (_count, _PATHS),
    "n_paths": (_count, _PATHS),
    "ladder": (_reals, ("couple", "modulus")),
    "base_point": (_reals, _PATHS),
    "direction": (_reals, ("couple", "modulus")),
    "eval_horizon": (_real, ("couple",)),
    "couple_tol": (_real, ("couple", "modulus")),
}
# each section's known names and the kinds that read, and so need, it:
# <section>.name picks one, and the other <section>.* keys are its
# parameters, set as <section>_name and <section>_params.  An oracle
# parameter is read by its default's type in ORACLES.
SECTIONS = {
    "field": (FIELD_BUILDERS, (*_PATHS, "validate")),
    "terminal": (TERMINAL_BUILDERS, ("solve", "modulus")),
    "oracle": (ORACLES, ("oracle",)),
}
_BY_TYPE = {int: _count, float: _real, list: _reals}


@dataclass
class ExperimentConfig:
    """A validated, fully-resolved experiment description."""

    kind: str
    seed: int
    field_name: str | None = None
    field_params: dict = dc_field(default_factory=dict)
    terminal_name: str | None = None
    terminal_params: dict = dc_field(default_factory=dict)
    horizon: float = 1.0
    steps: int = 1000
    n_paths: int = 10_000
    ladder: tuple = ()
    # None: the origin and e_1 in field.dim dimensions (see cli)
    base_point: tuple | None = None
    direction: tuple | None = None
    eval_horizon: float | None = None
    couple_tol: float | None = None
    oracle_name: str | None = None
    oracle_params: dict = dc_field(default_factory=dict)

    def resolved(self) -> dict:
        """Echo of the keys the kind reads, with defaults expanded;
        sufficient to re-run.  Unset (None) keys are left out."""
        out = {"kind": self.kind, "seed": self.seed}
        for key, (_, kinds) in KEYS.items():
            v = getattr(self, key.rpartition(".")[2])
            if self.kind in kinds and v is not None:
                out[key] = v
        for sec, (_, kinds) in SECTIONS.items():
            if self.kind in kinds:
                out[f"{sec}.name"] = getattr(self, f"{sec}_name")
                for k, v in sorted(getattr(self, f"{sec}_params").items()):
                    out[f"{sec}.{k}"] = v
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> ExperimentConfig:
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    seed = raw.get("seed")
    # RngStream's rule, checked here so that a bad seed is a config error
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError(f"an explicit integer seed in [0, 2^64) is required, got {seed!r}")
    # retired: every run uses one thread; configs may still say workers = 1
    workers = raw.get("workers", 1)
    if type(workers) is not int or workers != 1:
        raise ConfigError("workers is retired: only workers = 1 is accepted, "
                          f"got {workers!r}")

    cfg = ExperimentConfig(kind=kind, seed=seed)
    unread = []
    for key, v in raw.items():
        if key in ("kind", "seed", "workers"):
            continue
        sec, dot, _ = key.partition(".")
        if key in KEYS:
            reader, kinds = KEYS[key]
        elif dot and sec in SECTIONS:
            reader, kinds = None, SECTIONS[sec][1]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        if kind not in kinds:
            unread.append(key)
        elif reader is not None:
            setattr(cfg, key.rpartition(".")[2], reader(key, v))
    if unread:
        raise ConfigError(f"kind = {kind} does not read {', '.join(unread)}")

    for sec, (known, kinds) in SECTIONS.items():
        if kind in kinds:
            params = _section(raw, sec)
            name = params.pop("name", None)
            if name is None:
                raise ConfigError(f"{sec}.name is required for kind = {kind}")
            if name not in tuple(known):  # a list (a, b) is unhashable
                raise ConfigError(f"unknown {sec} {name!r}; known: {sorted(known)}")
            setattr(cfg, f"{sec}_name", name)
            setattr(cfg, f"{sec}_params", params)
    if cfg.oracle_name is not None:
        defaults = ORACLES[cfg.oracle_name]
        for k, v in cfg.oracle_params.items():
            if k not in defaults:
                raise ConfigError(f"unknown config key 'oracle.{k}' for oracle "
                                  f"{cfg.oracle_name!r}; known: {list(defaults)}")
            cfg.oracle_params[k] = _BY_TYPE[type(defaults[k])](f"oracle.{k}", v)

    if cfg.horizon <= 0.0:
        raise ConfigError("grid.horizon must be > 0")
    if cfg.n_paths < 2:
        raise ConfigError("n_paths must be >= 2")
    lad = cfg.ladder
    if kind in KEYS["ladder"][1] and not (
            lad and lad[-1] > 0.0 and all(r > s for r, s in zip(lad, lad[1:]))):
        raise ConfigError(f"kind = {kind} needs a ladder, positive and strictly decreasing")
    if cfg.eval_horizon is not None and not 0.0 < cfg.eval_horizon <= cfg.horizon:
        raise ConfigError("eval_horizon must lie in (0, grid.horizon]")
    if cfg.couple_tol is not None and cfg.couple_tol < 0.0:
        raise ConfigError("couple_tol must be >= 0")
    return cfg
