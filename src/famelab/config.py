"""Experiment configuration: one JSON file drives every CLI subcommand.

A config resolves to: a dataset (preset name or mixture-spec path), a score
source, a noise schedule, guidance knobs, pool knobs, a scorer, seeds and
counts, and an output directory.  Loading validates every numeric range up
front so a bad config fails before any artifact is written.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .denoiser import TrainConfig
from .errors import InvalidArgumentError
from .guidance import GuidanceConfig
from .metrics import check_scorer_id
from .pool import POOL_MODES
from .sampler import SAMPLER_METHODS
from .schedule import SCHEDULE_KINDS

SOURCE_KINDS = ("analytic", "neural")
SWEEP_AXES = ("w", "f", "tau")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    dataset: str = "imbalanced2d"
    source: str = "analytic"
    checkpoint: str | None = None
    schedule_kind: str = "karras-like"
    n_steps: int = 64
    sigma_min: float = 0.01
    sigma_max: float = 10.0
    method: str = "heun"
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    pool_path: str | None = None
    pool_candidates: int = 200
    pool_n_f: int = 8
    pool_mode: str = "global"
    pool_build_w: float | None = None
    scorer: str = "component-tag"
    seed: int = 0
    n_per_class: int = 1000
    classes: tuple | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "out"
    workers: int | None = None
    save_trajectories: bool = True

    def __post_init__(self):
        if not self.name or "/" in self.name or self.name in (".", ".."):
            raise InvalidArgumentError(f"experiment name {self.name!r} is not a valid directory name")
        if self.source not in SOURCE_KINDS:
            raise InvalidArgumentError(f"source must be one of {SOURCE_KINDS}, got {self.source!r}")
        if self.method not in SAMPLER_METHODS:
            raise InvalidArgumentError(f"method must be one of {SAMPLER_METHODS}")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise InvalidArgumentError(f"schedule_kind must be one of {SCHEDULE_KINDS}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, int):
            raise InvalidArgumentError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise InvalidArgumentError("n_steps must be >= 1")
        if not (0.0 < self.sigma_min < self.sigma_max and np.isfinite(self.sigma_max)):
            raise InvalidArgumentError("need 0 < sigma_min < sigma_max < inf")
        if self.n_per_class < 1:
            raise InvalidArgumentError("n_per_class must be >= 1")
        if self.pool_candidates < 1 or self.pool_n_f < 1:
            raise InvalidArgumentError("pool_candidates and pool_n_f must be >= 1")
        if self.pool_mode not in POOL_MODES:
            raise InvalidArgumentError(f"pool_mode must be one of {POOL_MODES}")
        if self.pool_build_w is not None and not (
            np.isfinite(self.pool_build_w) and self.pool_build_w >= 0
        ):
            raise InvalidArgumentError("pool_build_w must be finite and >= 0")
        check_scorer_id(self.scorer)
        if self.classes is not None:
            if len(self.classes) == 0:
                raise InvalidArgumentError("classes, when given, must be nonempty")
            object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        if self.workers is not None and self.workers < 1:
            raise InvalidArgumentError("workers must be >= 1")


# keys that hold nested configs in the JSON form
_NESTED = {"guidance": GuidanceConfig, "train": TrainConfig}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in _NESTED:
            v = dict(vars(v))
            if f.name == "guidance" and v["cfg_interval"] is not None:
                v["cfg_interval"] = list(v["cfg_interval"])
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise InvalidArgumentError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(d) - known
    if unknown:
        raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(d)
    for key, cls in _NESTED.items():
        if key in kwargs:
            sub = kwargs[key]
            if not isinstance(sub, dict):
                raise InvalidArgumentError(f"config key {key!r} must be an object")
            sub_known = {f.name for f in dataclasses.fields(cls)}
            sub_unknown = set(sub) - sub_known
            if sub_unknown:
                raise InvalidArgumentError(f"unknown {key} keys: {sorted(sub_unknown)}")
            if key == "guidance" and sub.get("cfg_interval") is not None:
                sub = dict(sub, cfg_interval=tuple(sub["cfg_interval"]))
            try:
                kwargs[key] = cls(**sub)
            except TypeError as exc:
                raise InvalidArgumentError(f"bad {key} section: {exc}") from exc
    if kwargs.get("classes") is not None:
        kwargs["classes"] = tuple(kwargs["classes"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise InvalidArgumentError(f"bad config: {exc}") from exc


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass(frozen=True)
class SweepSpec:
    """One guidance axis varied over explicit values; all else fixed."""

    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise InvalidArgumentError(f"sweep axis must be one of {SWEEP_AXES}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise InvalidArgumentError("sweep needs at least one value")
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError("sweep values must be finite")
        object.__setattr__(self, "values", vals)
