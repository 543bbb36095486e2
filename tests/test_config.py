from __future__ import annotations

import pytest

from linedefects.cli import _config_from_args, build_parser
from linedefects.config import RunConfig, load_config_file


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.k_risky == 20
        assert cfg.lime_n == 5000
        assert cfg.lime_sigma == 25.0
        assert cfg.lime_k_features == 100
        assert cfg.entropy_threshold_within == 0.7
        assert cfg.entropy_threshold_cross == 0.6
        assert cfg.folds == 10 and cfg.repeats == 10

    def test_budget_must_cover_risky_set(self):
        with pytest.raises(ValueError, match="lime_k_features"):
            RunConfig(k_risky=50, lime_k_features=20)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            RunConfig(lime_n=0)
        with pytest.raises(ValueError):
            RunConfig(lime_sigma=0.0)

    @pytest.mark.parametrize("name", ["lime_sigma", "entropy_threshold_within", "entropy_threshold_cross"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_float_settings_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            RunConfig(**{name: value})

    def test_surrogate_needs_two_neighbors(self):
        with pytest.raises(ValueError, match="lime_n must be >= 2"):
            RunConfig(lime_n=1)
        assert RunConfig(lime_n=2).lime_n == 2


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nlime_sigma = 12.5  # narrow kernel\n\nfolds=3\n")
        assert load_config_file(path) == {"seed": 9, "lime_sigma": 12.5, "folds": 3}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nfolds = 3\n")
        argv = ["evaluate", "--dataset", "d.csv", "--setting", "within", "--out-dir", "o", "--config", str(path)]
        cfg = _config_from_args(build_parser().parse_args(argv + ["--seed", "42"]))
        assert cfg.seed == 42
        assert cfg.folds == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(path)

    @pytest.mark.parametrize("text, kind", [("seed = abc", "int"), ("lime_sigma = wide", "float")])
    def test_mistyped_value_names_its_file_line_and_key(self, tmp_path, text, kind):
        path = tmp_path / "run.cfg"
        path.write_text(f"# run settings\n{text}\n")
        key, value = text.split(" = ")
        with pytest.raises(ValueError) as err:
            load_config_file(path)
        assert str(err.value) == f"{path}:2: {key} must be {kind}, got {value!r}"
