import pytest

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

    @pytest.mark.parametrize("mutation,match", [
        ("kind = dance", "kind"),
        ("seed =", "seed"),
        ("field.name = mystery", "unknown field"),
        ("ladder = 0.1, 0.2", "decreasing"),
        ("ladder =", "ladder"),
        ("workers = 0", "workers"),
        ("grid.steps = 0", "grid"),
        ("n_paths = 1", "n_paths"),
        ("eval_horizon = 5.0", "eval_horizon"),
        ("couple_tol = -1", "couple_tol"),
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

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD)
        cfg = load_config(p)
        assert cfg.kind == "couple"
