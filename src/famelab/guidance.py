"""Denoiser-space guidance combiners and the guided source the sampler steps.

Classifier-free guidance blends conditional and unconditional denoiser
outputs, w*d1 + (1-w)*d0.  The failure-escape extension adds a third term
that subtracts a replayed denoiser output taken from a stored low-quality
trajectory, (w+f)*d1 + (1-w)*d0 - f*d_neg, pushing mass away from the failure
modes those trajectories ended in.  The replay term is gated to the last tau
fraction of normalized denoising time; tau = 1 applies it from the very first
step, tau = 0 disables it entirely.

`GuidedSource.step` is that blend as one pure call: it asks the base source
for d1 (and d0 when a conditional step has w != 1) in one `denoise` call,
reads d_neg from the pool records `bind` chose, and returns the guided
output with d1, which the sampler records as the trajectory's conditional
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_real
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance knobs: CFG scale w, replay scale f, activation fraction tau,
    and an optional normalized-time window restricting where CFG applies."""

    w: float = 1.0
    f: float = 0.0
    tau: float = 0.3
    cfg_interval: tuple | None = None

    def __post_init__(self):
        for name in ("w", "f", "tau"):
            check_real(name, getattr(self, name))
        if not (np.isfinite(self.w) and self.w >= 0):
            raise InvalidArgumentError(f"w must be finite and >= 0, got {self.w}")
        if not (np.isfinite(self.f) and self.f >= 0):
            raise InvalidArgumentError(f"f must be finite and >= 0, got {self.f}")
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidArgumentError(f"tau must be in [0, 1], got {self.tau}")
        if self.cfg_interval is not None:
            if not isinstance(self.cfg_interval, (list, tuple)) or len(self.cfg_interval) != 2:
                raise InvalidArgumentError(
                    f"cfg_interval must be a pair [lo, hi], got {self.cfg_interval!r}"
                )
            lo, hi = self.cfg_interval
            check_real("cfg_interval bounds", lo)
            check_real("cfg_interval bounds", hi)
            if not 0.0 <= lo < hi <= 1.0:
                raise InvalidArgumentError(
                    f"cfg_interval must satisfy 0 <= lo < hi <= 1, got {self.cfg_interval}"
                )
            object.__setattr__(self, "cfg_interval", (float(lo), float(hi)))


# the reference operating point for replay guidance
FAME_DEFAULTS = GuidanceConfig(w=1.5, f=0.02, tau=0.3)


def cfg_combine(d1, d0, w: float):
    """Classifier-free blend w*d1 + (1-w)*d0.

    w=1 returns d1 itself, bit-identical to conditional-only sampling; d0 may
    be None in that case.
    """
    if w == 1.0:
        return d1
    return w * d1 + (1.0 - w) * d0


def fame_combine(d1, d0, d_neg, w: float, f: float):
    """Three-term blend (w+f)*d1 + (1-w)*d0 - f*d_neg.

    f=0 delegates to cfg_combine, making plain CFG a bit-identical special
    case; at w=1 the unconditional term drops out and d0 may be None.
    """
    if f == 0.0:
        return cfg_combine(d1, d0, w)
    if w == 1.0:
        return (1.0 + f) * d1 - f * d_neg
    return (w + f) * d1 + (1.0 - w) * d0 - f * d_neg


def replay_active(cfg: GuidanceConfig, k: int, T: int) -> bool:
    """Whether the replay term applies at evaluation index k of T.

    Pure function of the index: the window is the last tau fraction of
    normalized time, t = k/T >= 1 - tau.
    """
    return cfg.f > 0.0 and k / T >= 1.0 - cfg.tau


def effective_w(cfg: GuidanceConfig, k: int, T: int) -> float:
    """CFG scale at evaluation index k; outside cfg_interval w collapses to 1."""
    if cfg.cfg_interval is None:
        return cfg.w
    lo, hi = cfg.cfg_interval
    t = k / T
    return cfg.w if lo <= t <= hi else 1.0


class GuidedSource:
    """Wrap a base source with CFG and optional failure replay.

    The sampler's one source: `bind` ties each trajectory of a chunk to a
    pool record, and `step` gives the guided output at one level together
    with the conditional output it was built from.  The base is asked for
    the unconditional output only when the effective w differs from 1 on
    conditional trajectories, and then for both in one `denoise` call; the
    pool is only consulted inside the activation window, so plain
    conditional sampling and plain CFG pay nothing for the machinery.
    """

    def __init__(self, base, pool, cfg: GuidanceConfig):
        if cfg.f > 0.0 and (pool is None or len(pool) == 0):
            raise InvalidArgumentError("replay guidance (f > 0) requires a nonempty pool")
        self.base = base
        self.pool = pool if cfg.f > 0.0 else None
        self.cfg = cfg

    @property
    def dim(self) -> int:
        return self.base.dim

    def fingerprint(self) -> int:
        return self.base.fingerprint()

    def bind(self, schedule: NoiseSchedule, seeds, class_ids):
        """The pool record bound to each trajectory, or None without replay."""
        if self.pool is None:
            return None
        self.pool.check_compatible(schedule, self.dim, self.base.fingerprint())
        return self.pool.select_indices(seeds, class_ids)

    def step(self, x, k, schedule: NoiseSchedule, class_ids, neg):
        """(guided output, conditional output) at level k of the schedule;
        neg is what `bind` returned for these trajectories."""
        T = schedule.T
        # unconditionally d1 is d0, and w*d0 + (1-w)*d0 is d0 up to rounding
        w = 1.0 if class_ids is None else effective_w(self.cfg, k, T)
        sigma = schedule.sigmas[k]
        if w != 1.0:
            d1, d0 = self.base.denoise(x, sigma, [class_ids, None])
        else:
            [d1], d0 = self.base.denoise(x, sigma, [class_ids]), None
        if self.pool is not None and replay_active(self.cfg, k, T):
            return fame_combine(d1, d0, self.pool.replay_outputs(neg, k), w, self.cfg.f), d1
        return cfg_combine(d1, d0, w), d1


def guided_source(base, pool, cfg: GuidanceConfig) -> GuidedSource:
    """Compose a base source with guidance; pool may be None when f = 0."""
    return GuidedSource(base, pool, cfg)
