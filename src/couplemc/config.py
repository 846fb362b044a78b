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

import numpy as np

from .errors import ConfigError
from .registry import FIELD_BUILDERS, TERMINAL_BUILDERS

KINDS = ("couple", "solve", "modulus", "oracle", "validate")
ORACLES = ("sgn", "heat", "running-max", "bm-coupling")

# top-level config keys; each sets the ExperimentConfig attribute named by
# its last dotted part (grid.steps -> steps).  The sections field.*,
# terminal.* and oracle.* set <section>_name and <section>_params.
TOP_LEVEL_KEYS = ("kind", "seed", "grid.horizon", "grid.steps", "n_paths",
                  "ladder", "base_point", "direction", "eval_horizon",
                  "couple_tol")
SECTIONS = ("field", "terminal", "oracle")


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


def _named_section(raw: dict, sec: str, known, required: bool) -> tuple:
    """(name, params) of the field or terminal section, (None, {}) when it
    names nothing."""
    params = _section(raw, sec)
    name = params.pop("name", None)
    if name is None:
        if required:
            raise ConfigError(f"{sec}.name is required for this kind")
        return None, {}
    if name not in known:
        raise ConfigError(f"unknown {sec} {name!r}; known: {sorted(known)}")
    return name, params


def _count(raw: dict, key: str, default: int) -> int:
    """raw[key] as an int: an integer, or a float with an integral value;
    anything else (2.5, inf, nan, a word) is a config error naming key."""
    v = raw.get(key, default)
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _real(raw: dict, key: str, default: float) -> float:
    """raw[key] as a float; anything but a number (a word, a list, true)
    is a config error naming key.  Range checks are the caller's."""
    v = raw.get(key, default)
    if not _is_number(v):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    return float(v)


def _reals(raw: dict, key: str, default=None) -> tuple:
    """raw[key], one number or a comma list of them, as a tuple of floats
    (empty when unset); a word among them is a config error naming key."""
    vals = _as_list(raw.get(key, default))
    if not all(map(_is_number, vals)):
        raise ConfigError(f"{key} must be a list of numbers, got {vals!r}")
    return tuple(float(v) for v in vals)


def _as_list(v) -> list:
    if v is None:
        return []
    return list(v) if isinstance(v, list) else [v]


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
        """Full config echo with defaults expanded; sufficient to re-run.
        Unset (None) and empty keys are left out."""
        out = {}
        for key in TOP_LEVEL_KEYS:
            v = getattr(self, key.rpartition(".")[2])
            if v is not None and v != ():
                out[key] = list(v) if isinstance(v, tuple) else v
        for sec in SECTIONS:
            name = getattr(self, f"{sec}_name")
            if name is not None:
                out[f"{sec}.name"] = name
                for k, v in sorted(getattr(self, f"{sec}_params").items()):
                    out[f"{sec}.{k}"] = v
        return out


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
    if not isinstance(raw.get("seed"), int):
        raise ConfigError("an explicit integer seed is required")

    cfg = ExperimentConfig(kind=kind, seed=raw["seed"])
    # retired: every run uses one thread; configs may still say workers = 1
    workers = raw.get("workers", 1)
    if type(workers) is not int or workers != 1:
        raise ConfigError("workers is retired: only workers = 1 is accepted, "
                          f"got {workers!r}")

    cfg.field_name, cfg.field_params = _named_section(
        raw, "field", FIELD_BUILDERS, required=kind != "oracle")
    cfg.terminal_name, cfg.terminal_params = _named_section(
        raw, "terminal", TERMINAL_BUILDERS, required=kind in ("solve", "modulus"))

    cfg.horizon = _real(raw, "grid.horizon", 1.0)
    cfg.steps = _count(raw, "grid.steps", 1000)
    if not 0.0 < cfg.horizon < np.inf or cfg.steps < 1:
        raise ConfigError("grid.horizon must be finite and > 0 and grid.steps >= 1")
    cfg.n_paths = _count(raw, "n_paths", 10_000)
    if cfg.n_paths < 2:
        raise ConfigError("n_paths must be >= 2")

    cfg.ladder = _reals(raw, "ladder")
    if kind in ("couple", "modulus"):
        if not cfg.ladder:
            raise ConfigError("a distance ladder is required for this kind")
        arr = np.asarray(cfg.ladder)
        if not np.isfinite(arr).all() or np.any(arr <= 0) or np.any(np.diff(arr) >= 0):
            raise ConfigError("ladder must be finite, positive and strictly decreasing")

    for key in ("base_point", "direction"):
        if raw.get(key) is not None:
            setattr(cfg, key, _reals(raw, key))
    if raw.get("eval_horizon") is not None:
        if kind != "couple":
            raise ConfigError("eval_horizon applies only to kind = couple")
        cfg.eval_horizon = _real(raw, "eval_horizon", None)
        if not 0.0 < cfg.eval_horizon <= cfg.horizon:
            raise ConfigError("eval_horizon must lie in (0, grid.horizon]")
    if raw.get("couple_tol") is not None:
        cfg.couple_tol = _real(raw, "couple_tol", None)
        if not 0.0 <= cfg.couple_tol < np.inf:
            raise ConfigError("couple_tol must be finite and >= 0")

    osec = _section(raw, "oracle")
    if kind == "oracle":
        name = osec.pop("name", None)
        if name not in ORACLES:
            raise ConfigError(f"oracle.name must be one of {ORACLES}, got {name!r}")
        cfg.oracle_name = name
        cfg.oracle_params = osec

    known_prefixes = tuple(f"{sec}." for sec in SECTIONS)
    for key in raw:
        if key in (*TOP_LEVEL_KEYS, "workers") or key.startswith(known_prefixes):
            continue
        raise ConfigError(f"unknown config key {key!r}")
    return cfg
