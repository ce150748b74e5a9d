"""Config serialization, validation, and sweep axis checks."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famelab.config import (
    ExperimentConfig,
    SweepSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from famelab.denoiser import TrainConfig
from famelab.errors import InvalidArgumentError
from famelab.guidance import GuidanceConfig
from famelab.pool import PoolBuildConfig


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
            scorer="log-density",
            seed=1234,
            n_per_class=50,
            classes=(1, 3, 5),
            train=TrainConfig(steps=100, batch_size=32, seed=9),
            out_dir="/tmp/elsewhere",
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
        # the worker-thread option is gone: a config that sets it names it
        with pytest.raises(InvalidArgumentError, match="workers"):
            config_from_dict({"workers": 2})
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
        # wrong JSON types: once a bare TypeError/ValueError, or accepted and
        # failing only later in the run (or, for 1.7, truncated to 1)
        for bad in (
            {"classes": 5},
            {"classes": ["a"]},
            {"classes": [1.7]},
            {"classes": [True]},
            # a repeated class would be sampled twice from the same seeds
            # and counted twice in every report
            {"classes": [1, 1, 2]},
            {"guidance": {"cfg_interval": 5}},
            {"guidance": {"cfg_interval": [1]}},
            {"guidance": {"w": "2"}},
            {"seed": "abc"},
            {"n_per_class": 2.5},
            {"workers": 1.5},
            {"pool_candidates": 1.5},
            {"dataset": 5},
            {"name": 5},
            {"sigma_min": None},
            {"save_trajectories": 1},
            {"train": {"steps": 2.5}},
            {"train": {"lr": "fast"}},
        ):
            with pytest.raises(InvalidArgumentError):
                config_from_dict(bad)

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


# each config class with the arguments a valid instance needs, and a value
# of the wrong type for each scalar annotation
_REQUIRED = {
    ExperimentConfig: {},
    GuidanceConfig: {},
    TrainConfig: {},
    PoolBuildConfig: {"n_candidates_per_class": 4},
}
_WRONG_TYPE = {"int": True, "float": "x", "str": 1, "bool": 1}
_FIELDS = [(cls, f) for cls in _REQUIRED for f in dataclasses.fields(cls)]


class TestFieldTypes:
    @pytest.mark.parametrize("cls, f", _FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in _FIELDS])
    def test_type_comes_from_the_annotation(self, cls, f):
        # check_fields reads annotations as strings; a module that loses
        # `from __future__ import annotations` would silently check nothing
        assert isinstance(f.type, str), f.type
        kind, _, optional = f.type.partition(" | ")

        def make(value):
            return cls(**{**_REQUIRED[cls], f.name: value})

        if kind in _WRONG_TYPE:
            with pytest.raises(InvalidArgumentError):
                make(_WRONG_TYPE[kind])
        if optional == "None":
            make(None)
        elif kind in _WRONG_TYPE:
            with pytest.raises(InvalidArgumentError):
                make(None)

    def test_every_scalar_kind_occurs(self):
        assert set(_WRONG_TYPE) <= {str(f.type).partition(" | ")[0] for _, f in _FIELDS}


class TestSweepSpec:
    def test_valid(self):
        s = SweepSpec("f", (0, 0.02, 0.05))
        assert s.values == (0.0, 0.02, 0.05)
        assert SweepSpec("tau", (np.float64(0.5), np.int64(2))).values == (0.5, 2.0)
        assert SweepSpec("w", np.array([1.0, 2.0])).values == (1.0, 2.0)

    def test_bad_axis(self):
        for axis in ("sigma", None, 1, ["f"]):
            with pytest.raises(InvalidArgumentError):
                SweepSpec(axis, (1.0,))

    def test_empty_values(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("w", ())

    def test_non_finite_values(self):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("w", (1.0, float("nan")))

    @pytest.mark.parametrize("values", [("a",), (None,), ([1],), (True,), (1.0, False), None, 1.0])
    def test_non_real_values(self, values):
        with pytest.raises(InvalidArgumentError):
            SweepSpec("w", values)


# JSON-like values: scalars of every JSON type (NaN and infinities included,
# which Python's json module reads), nested lists and objects, and values a
# field could plausibly hold, so examples also reach the checks past the type
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(
        [0, 1, 2, -1, 0.5, 1.5, 0.0, "", "a/b", "heun", "euler", "analytic", "neural",
         "karras-like", "global", "per-class", "log-density", "external:", "balanced2d"]
    ),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _section(cls, extra):
    """Dicts over cls's field names (plus sometimes an unknown key), or any value."""
    names = [f.name for f in dataclasses.fields(cls)] + [extra]
    return st.fixed_dictionaries({}, optional={n: _VALUES for n in names}) | _VALUES


_CONFIG_DICTS = st.fixed_dictionaries(
    {},
    optional={
        **{f.name: _VALUES for f in dataclasses.fields(ExperimentConfig)},
        "guidance": _section(GuidanceConfig, "omega"),
        "train": _section(TrainConfig, "epochs"),
        "nsteps": _VALUES,
    },
)


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_CONFIG_DICTS)
    def test_valid_config_or_invalid_argument(self, d):
        try:
            cfg = config_from_dict(d)
        except InvalidArgumentError:
            return
        # what loads also survives the JSON round trip unchanged
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
