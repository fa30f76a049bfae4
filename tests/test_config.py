"""Configuration parsing, presets, and seed stream behavior."""

import dataclasses

import numpy as np
import pytest

from mvnet.config import (
    ConfigError,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    config_to_text,
    load_config,
    parse_config_text,
    preset,
    save_config,
    seed_stream,
)


class TestDefaults:
    def test_default_attention_dim_tracks_view_dim(self):
        assert TrainConfig(view_dim=50).resolved_attention_dim() == 50
        assert TrainConfig(view_dim=50, attention_dim=9).resolved_attention_dim() == 9

    def test_default_hidden_dim_is_half_the_concatenation(self):
        assert TrainConfig(views=8, view_dim=200).resolved_hidden_dim() == 800
        assert TrainConfig(views=1, view_dim=1).resolved_hidden_dim() == 1

    def test_sst_preset_equals_defaults(self):
        assert preset("sst") == TrainConfig()

    def test_ag_preset_overrides(self):
        ag = preset("ag")
        assert ag.batch_size == 23
        assert ag.view_dim == 100
        assert dataclasses.replace(ag, batch_size=50, view_dim=200) == TrainConfig()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            preset("imdb")


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("views", 0), ("view_dim", 0), ("embed_dim", -3), ("batch_size", 0),
        ("dropout", 1.0), ("dropout", -0.1), ("rho", 1.5), ("epsilon", 0.0),
        ("max_epochs", 0), ("patience", -1), ("variant", "ring"), ("min_count", 0),
        ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("lr_scale", float("nan")), ("lr_scale", -1.0),
        ("views", 2.0), ("embed_dim", True), ("hidden_dim", 8.5),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            dataclasses.replace(TrainConfig(), **{field: value}).validate()

    def test_defaults_validate(self):
        TrainConfig().validate()


class TestTextFormat:
    def test_round_trip_is_exact(self):
        config = TrainConfig(views=5, view_dim=33, attention_dim=17, dropout=0.35,
                             lr_scale=0.125, variant="chain", conv_features=False,
                             hidden_dim=77, seed=99)
        assert parse_config_text(config_to_text(config)) == config

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text("# a comment\n\nviews = 2\n  # indented comment\n")
        assert config.views == 2

    def test_overrides_apply_over_base(self):
        base = preset("ag")
        config = parse_config_text("batch_size = 7", base=base)
        assert config.batch_size == 7
        assert config.view_dim == 100

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="2"):
            parse_config_text("views = 2\nwidth = 9\n")

    def test_bad_int_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="views"):
            parse_config_text("views = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="1"):
            parse_config_text("views 2")

    def test_bool_spellings(self):
        assert parse_config_text("conv_features = false").conv_features is False
        assert parse_config_text("conv_features = True").conv_features is True
        with pytest.raises(ConfigError):
            parse_config_text("conv_features = maybe")

    def test_save_then_load(self, tmp_path):
        config = TrainConfig(views=4, seed=3)
        path = tmp_path / "run.cfg"
        save_config(path, config)
        assert load_config(path) == config


class TestDictFormat:
    def test_round_trip(self):
        config = TrainConfig(views=6, variant="no-links")
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_key_rejected(self):
        data = config_to_dict(TrainConfig())
        data["colour"] = 1
        with pytest.raises(ConfigError, match="colour"):
            config_from_dict(data)


class TestSeedStreams:
    def test_same_name_same_stream(self):
        a = seed_stream(5, "init").normal(size=4)
        b = seed_stream(5, "init").normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        a = seed_stream(5, "init").normal(size=4)
        b = seed_stream(5, "shuffle").normal(size=4)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seed_stream(5, "init").normal(size=4)
        b = seed_stream(6, "init").normal(size=4)
        assert not np.array_equal(a, b)

    def test_unknown_stream_name_rejected(self):
        with pytest.raises(ValueError, match="stream"):
            seed_stream(5, "weather")
