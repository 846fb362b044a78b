import pytest
from hypothesis import given, settings, strategies as st

from couplemc import parse_config_text, validate_config
from couplemc.config import load_config
from couplemc.errors import ConfigError

GOOD = """
# a coupling experiment
kind = couple
seed = 42
field.name = constant
field.dim = 1
grid.horizon = 1.0
grid.steps = 100
n_paths = 500
ladder = 0.2, 0.1, 0.05
"""


def _render(resolved: dict) -> str:
    """A resolved config as config text; a one-entry list keeps a trailing
    comma so that it parses back as a list."""
    def value(v):
        if isinstance(v, list):
            return ", ".join(map(value, v)) + ("," if len(v) == 1 else "")
        return str(v).lower() if isinstance(v, bool) else str(v)

    return "".join(f"{k} = {value(v)}\n" for k, v in resolved.items())


_FLOATS = st.floats(-1e6, 1e6, allow_subnormal=False)
_PARAM_VALUES = st.one_of(st.integers(-10**6, 10**6), _FLOATS, st.booleans(),
                          st.sampled_from(["gaussian-bump", "x", "on"]),
                          st.lists(_FLOATS, min_size=1, max_size=3))
_PARAMS = st.dictionaries(st.sampled_from(["dim", "a0", "b0", "amp", "alpha",
                                           "center", "width", "coeffs"]),
                          _PARAM_VALUES, max_size=4)


@st.composite
def _config_texts(draw):
    kind = draw(st.sampled_from(["couple", "solve", "modulus", "validate"]))
    horizon = draw(st.floats(1e-3, 10.0))
    ladder = sorted(draw(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=4,
                                  unique=True)), reverse=True)
    raw = {"kind": kind, "seed": draw(st.integers(0, 2**63)),
           "grid.horizon": horizon, "grid.steps": draw(st.integers(1, 10**5)),
           "n_paths": draw(st.integers(2, 10**6)), "ladder": ladder}
    if draw(st.booleans()):
        raw["workers"] = 1  # the one value the retired key still takes
    for key in ("base_point", "direction"):
        if draw(st.booleans()):
            raw[key] = draw(st.lists(_FLOATS, min_size=1, max_size=3))
    if kind == "couple" and draw(st.booleans()):
        raw["eval_horizon"] = draw(st.floats(0.01, 1.0)) * horizon
    if draw(st.booleans()):
        raw["couple_tol"] = draw(st.floats(0.0, 1.0))
    raw["field.name"] = draw(st.sampled_from(["constant", "sin", "log-modulus"]))
    raw.update({f"field.{k}": v for k, v in draw(_PARAMS).items()})
    if kind in ("solve", "modulus") or draw(st.booleans()):
        raw["terminal.name"] = draw(st.sampled_from(["gaussian-bump", "linear"]))
        raw.update({f"terminal.{k}": v for k, v in draw(_PARAMS).items()})
    return _render(raw)


class TestParser:
    def test_basic_types(self):
        raw = parse_config_text("a = 1\nb = 1.5\nc = yes\nd = true\ne =\n"
                                "f = 1, 2.5, x\n# comment\n\n")
        assert raw == {"a": 1, "b": 1.5, "c": "yes", "d": True, "e": None,
                       "f": [1, 2.5, "x"]}

    def test_inline_comment(self):
        assert parse_config_text("a = 3 # three") == {"a": 3}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words")


class TestValidation:
    def test_good_config(self):
        cfg = validate_config(parse_config_text(GOOD))
        assert cfg.kind == "couple"
        assert cfg.seed == 42
        assert cfg.ladder == (0.2, 0.1, 0.05)
        assert cfg.field_name == "constant"
        assert cfg.field_params == {"dim": 1}

    def test_resolved_echo_reruns(self):
        cfg = validate_config(parse_config_text(GOOD))
        echo = cfg.resolved()
        # the echo is itself a valid raw config with identical content
        cfg2 = validate_config(echo)
        assert cfg2 == cfg

    @settings(max_examples=200, deadline=None)
    @given(text=_config_texts())
    def test_resolved_text_round_trips(self, text):
        # config text -> resolved() -> config text gives the same config
        cfg = validate_config(parse_config_text(text))
        assert validate_config(parse_config_text(_render(cfg.resolved()))) == cfg

    @pytest.mark.parametrize("mutation,match", [
        ("kind = dance", "kind"),
        ("seed =", "seed"),
        ("field.name = mystery", "unknown field"),
        ("ladder = 0.1, 0.2", "decreasing"),
        ("ladder =", "ladder"),
        ("workers = 0", "workers"),
        ("workers = 2", "workers"),
        ("workers = 1.5", "workers"),
        ("grid.steps = 0", "grid"),
        ("grid.steps = 2.5", "grid.steps"),
        ("grid.steps = inf", "grid.steps"),
        ("grid.steps = nan", "grid.steps"),
        ("grid.steps = many", "grid.steps"),
        ("n_paths = nan", "n_paths"),
        ("n_paths = inf", "n_paths"),
        ("n_paths = 100.5", "n_paths"),
        ("n_paths = true", "n_paths"),
        ("ladder = nan", "ladder"),
        ("ladder = inf, 0.1", "ladder"),
        ("ladder = 0.2, nan", "ladder"),
        ("grid.horizon = inf", "grid.horizon"),
        ("grid.horizon = nan", "grid.horizon"),
        ("n_paths = 1", "n_paths"),
        ("eval_horizon = 5.0", "eval_horizon"),
        ("couple_tol = -1", "couple_tol"),
        ("couple_tol = nan", "couple_tol"),
        ("couple_tol = inf", "couple_tol"),
        ("grid.horizon = abc", "grid.horizon"),
        ("grid.horizon = true", "grid.horizon"),
        ("ladder = 0.2, abc", "ladder"),
        ("base_point = abc", "base_point"),
        ("direction = 1.0, abc", "direction"),
        ("eval_horizon = abc", "eval_horizon"),
        ("couple_tol = abc", "couple_tol"),
        ("surprise = 1", "unknown config key"),
    ])
    def test_rejections(self, mutation, match):
        key = mutation.split("=")[0].strip()
        lines = [ln for ln in GOOD.strip().splitlines()
                 if not ln.strip().startswith(key)]
        lines.append(mutation)
        with pytest.raises(ConfigError, match=match):
            validate_config(parse_config_text("\n".join(lines)))

    @pytest.mark.parametrize("kind", ["solve", "modulus", "validate"])
    def test_eval_horizon_only_for_couple(self, kind):
        raw = parse_config_text(GOOD + "terminal.name = constant\n"
                                "eval_horizon = 0.5\n")
        raw["kind"] = kind
        with pytest.raises(ConfigError, match="eval_horizon"):
            validate_config(raw)

    def test_oracle_kind(self):
        raw = parse_config_text("kind = oracle\nseed = 0\noracle.name = sgn\n"
                                "oracle.theta = 2.0")
        cfg = validate_config(raw)
        assert cfg.oracle_name == "sgn"
        assert cfg.oracle_params == {"theta": 2.0}
        raw["oracle.name"] = "wat"
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_solve_needs_terminal(self):
        raw = parse_config_text("kind = solve\nseed = 1\nfield.name = constant")
        with pytest.raises(ConfigError, match="terminal"):
            validate_config(raw)

    def test_integral_float_counts_are_accepted(self):
        raw = parse_config_text(GOOD)
        raw.update({"grid.steps": 200.0, "n_paths": 1e3})
        cfg = validate_config(raw)
        assert (cfg.steps, cfg.n_paths) == (200, 1000)
        assert type(cfg.steps) is int and type(cfg.n_paths) is int

    def test_workers_one_is_accepted_and_not_echoed(self):
        cfg = validate_config(parse_config_text(GOOD + "workers = 1\n"))
        assert cfg == validate_config(parse_config_text(GOOD))
        assert "workers" not in cfg.resolved()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD)
        cfg = load_config(p)
        assert cfg.kind == "couple"

