"""Experiment configuration: one JSON file drives every CLI subcommand.

A config resolves to: a dataset (preset name or mixture-spec path), a score
source, a noise schedule, guidance knobs, pool knobs, a scorer, seeds and
counts, and an output directory.  Loading checks each field's type, from
its annotation, then each range, stated by the part the field configures,
so a bad config fails with InvalidArgumentError before any artifact is
written; rules that need the dataset are checked once `Experiment` has it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .denoiser import TrainConfig
from .errors import InvalidArgumentError, check_class_id, check_fields, check_real, check_str
from .guidance import GuidanceConfig
from .metrics import check_scorer_id
from .pool import PoolBuildConfig
from .sampler import check_method
from .schedule import check_schedule

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
    scorer: str = "component-tag"
    seed: int = 0
    n_per_class: int = 1000
    classes: tuple | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "out"
    save_trajectories: bool = True
    workers = None  # not a field; perfbench/worker.py reads it until ROADMAP item 1 deletes it

    def __post_init__(self):
        check_fields(self)
        # a name is also SVG text, and XML 1.0 cannot hold control characters
        if not self.name or "/" in self.name or self.name in (".", "..") or not self.name.isprintable():
            raise InvalidArgumentError(f"experiment name {self.name!r} is not a printable directory name")
        if self.source not in SOURCE_KINDS:
            raise InvalidArgumentError(f"source must be one of {SOURCE_KINDS}, got {self.source!r}")
        check_method(self.method)
        check_schedule(self.schedule_kind, self.n_steps, self.sigma_min, self.sigma_max)
        if self.n_per_class < 1:
            raise InvalidArgumentError("n_per_class must be >= 1")
        PoolBuildConfig(self.pool_candidates, self.pool_n_f, self.pool_mode)
        check_scorer_id(self.scorer)
        if self.classes is not None:
            if not isinstance(self.classes, (list, tuple)) or len(self.classes) == 0:
                raise InvalidArgumentError(
                    f"classes, when given, must be a nonempty list, got {self.classes!r}"
                )
            for c in self.classes:
                check_class_id(c)
            if len(set(self.classes)) != len(self.classes):
                raise InvalidArgumentError(f"classes must not repeat, got {list(self.classes)}")
            object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))


# keys that hold nested config sections in the JSON form
_NESTED = {"guidance": GuidanceConfig, "train": TrainConfig}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON form of a config: sections become dicts, tuples lists."""

    def plain(v):
        if dataclasses.is_dataclass(v):
            return {f.name: plain(getattr(v, f.name)) for f in dataclasses.fields(v)}
        return list(v) if isinstance(v, tuple) else v

    return plain(cfg)


def _section(cls, d, name):
    """Build config section `name` of type cls from its JSON object, with
    its own nested sections built the same way."""
    if not isinstance(d, dict):
        raise InvalidArgumentError(f"{name} must be a JSON object")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise InvalidArgumentError(f"unknown {name} keys: {sorted(unknown)}")
    kwargs = {k: _section(_NESTED[k], v, k) if k in _NESTED else v for k, v in d.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidArgumentError(f"bad {name}: {exc}") from exc


def config_from_dict(d: dict) -> ExperimentConfig:
    return _section(ExperimentConfig, d, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass(frozen=True)
class SweepSpec:
    """One guidance axis varied over explicit values; all else fixed."""

    axis: str
    values: tuple

    def __post_init__(self):
        check_str("sweep axis", self.axis)
        if self.axis not in SWEEP_AXES:
            raise InvalidArgumentError(f"sweep axis must be one of {SWEEP_AXES}")
        try:
            vals = tuple(self.values)
        except TypeError:
            raise InvalidArgumentError(f"sweep values must be a sequence, got {self.values!r}") from None
        for v in vals:
            check_real("sweep value", v)
        vals = tuple(float(v) for v in vals)
        if not vals:
            raise InvalidArgumentError("sweep needs at least one value")
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError("sweep values must be finite")
        object.__setattr__(self, "values", vals)
