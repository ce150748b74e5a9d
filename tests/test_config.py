"""Config serialization, validation, and sweep axis checks."""

import json

import pytest

from famelab.config import (
    ExperimentConfig,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from famelab.denoiser import TrainConfig
from famelab.errors import InvalidArgumentError
from famelab.guidance import GuidanceConfig


class TestRoundTrip:
    def test_default_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_customized_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            name="run7",
            dataset="balanced2d",
            source="neural",
            checkpoint="model.mlpd",
            schedule_kind="linear-sigma",
            n_steps=48,
            sigma_min=0.05,
            sigma_max=6.0,
            method="euler",
            guidance=GuidanceConfig(w=2.0, f=0.05, tau=0.5, cfg_interval=(0.1, 0.9)),
            pool_path="pool.fmpl",
            pool_candidates=64,
            pool_n_f=4,
            pool_mode="per-class",
            pool_build_w=1.2,
            scorer="log-density",
            seed=1234,
            n_per_class=50,
            classes=(1, 3, 5),
            train=TrainConfig(steps=100, batch_size=32, seed=9),
            out_dir="/tmp/elsewhere",
            workers=2,
            save_trajectories=False,
        )
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        loaded = load_config(p)
        assert loaded == cfg
        assert loaded.guidance.cfg_interval == (0.1, 0.9)
        assert loaded.classes == (1, 3, 5)

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"name": "x", "n_steps": 8})
        assert cfg.n_steps == 8
        assert cfg.guidance == GuidanceConfig()
        assert cfg.method == "heun"

    def test_dict_form_is_json_safe(self):
        d = config_to_dict(ExperimentConfig(classes=(2, 4)))
        json.dumps(d)
        assert d["classes"] == [2, 4]
        assert isinstance(d["guidance"], dict)


class TestValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidArgumentError):
            config_from_dict({"nsteps": 8})
        with pytest.raises(InvalidArgumentError):
            config_from_dict({"guidance": {"w": 1.0, "omega": 2.0}})

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(source="oracle")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(n_steps=0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(sigma_min=2.0, sigma_max=1.0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(method="rk4")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(n_per_class=0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(classes=())
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(name="a/b")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(workers=0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(pool_mode="nope")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(sigma_min=0.0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(schedule_kind="cosine")
        for n_steps in (16.5, True, "16"):
            with pytest.raises(InvalidArgumentError):
                ExperimentConfig(n_steps=n_steps)
        for scorer in ("fid", "external:", "external:'unclosed"):
            with pytest.raises(InvalidArgumentError):
                ExperimentConfig(scorer=scorer)

    def test_nested_guidance_validated_at_load(self):
        with pytest.raises(InvalidArgumentError):
            config_from_dict({"guidance": {"tau": 1.5}})

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InvalidArgumentError):
            load_config(p)

    def test_non_object_rejected(self):
        with pytest.raises(InvalidArgumentError):
            config_from_dict([1, 2, 3])


class TestSweepSpec:
    def test_valid(self):
        s = SweepSpec("f", (0, 0.02, 0.05))
        assert s.values == (0.0, 0.02, 0.05)

    def test_bad_axis(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("sigma", (1.0,))

    def test_empty_values(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("w", ())

    def test_non_finite_values(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("w", (1.0, float("nan")))
