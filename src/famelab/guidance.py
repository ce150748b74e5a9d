"""Denoiser-space guidance: per-step weights, one blend, and the guided source.

Classifier-free guidance blends conditional and unconditional denoiser
outputs, w*d1 + (1-w)*d0.  The failure-escape extension adds a third term
that subtracts a replayed denoiser output taken from a stored low-quality
trajectory, (w+f)*d1 + (1-w)*d0 - f*d_neg, pushing mass away from the failure
modes those trajectories ended in.  The replay term is gated to the last tau
fraction of normalized denoising time; tau = 1 applies it from the very first
step, tau = 0 disables it entirely.

`weights` gives the three terms' weights at step k and `blend` sums them.
`GuidedSource.step` asks for the terms of nonzero weight only (d1 and d0 in
one `denoise` call, d_neg from the pool records `bind` chose) and returns
the blend with d1, which the sampler records as the trajectory's
conditional output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_fields, check_real
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
        check_fields(self)
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


def weights(cfg: GuidanceConfig, k: int, T: int) -> tuple:
    """Weights (a1, a0, an) of d1, d0 and d_neg at evaluation index k of T,
    (w+f, 1-w, f): w is cfg.w inside cfg_interval and 1 outside it; f is
    cfg.f in the last tau fraction of normalized time, t = k/T >= 1 - tau,
    and 0 before it."""
    t = k / T
    lo, hi = cfg.cfg_interval or (-np.inf, np.inf)
    w = cfg.w if lo <= t <= hi else 1.0
    f = cfg.f if t >= 1.0 - cfg.tau else 0.0
    return w + f, 1.0 - w, f


def blend(a1, a0, an, d1, d0=None, d_neg=None):
    """(a1*d1 + a0*d0) - an*d_neg in that order, skipping a d0 or d_neg term
    of weight 0 (it may then be None).  Weights (1, 0, 0) return d1 itself, so
    f=0 is bit-identical to CFG and w=1, f=0 to conditional-only sampling."""
    if a1 == 1.0 and a0 == 0.0 and an == 0.0:
        return d1
    out = a1 * d1
    if a0 != 0.0:
        out = out + a0 * d0
    if an != 0.0:
        out = out - an * d_neg
    return out


class GuidedSource:
    """Wrap a base source with CFG and optional failure replay.

    The sampler's one source: `bind` ties each trajectory of a chunk to a
    pool record, and `step` gives the guided output at one level together
    with the conditional output it was built from.  `step` asks only for the
    terms `weights` gives a nonzero weight: the base for d0 with d1, in one
    `denoise` call, and the pool for d_neg; so plain conditional sampling and
    plain CFG pay nothing for the machinery.
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

    def step(self, x, k, schedule: NoiseSchedule, class_ids, neg, scratch=None):
        """(guided output, conditional output) at level k of the schedule;
        neg is what `bind` returned for these trajectories, and scratch,
        the sampler's work dict for this chunk segment, goes to the base's
        `denoise`."""
        a1, a0, an = weights(self.cfg, k, schedule.T)
        sigma = schedule.sigmas[k]
        if a0 != 0.0:
            d1, d0 = self.base.denoise(x, sigma, [class_ids, None], scratch=scratch)
        else:
            [d1], d0 = self.base.denoise(x, sigma, [class_ids], scratch=scratch), None
        d_neg = self.pool.replay_outputs(neg, k) if an != 0.0 else None
        return blend(a1, a0, an, d1, d0, d_neg), d1


def guided_source(base, pool, cfg: GuidanceConfig) -> GuidedSource:
    """Compose a base source with guidance; pool may be None when f = 0."""
    return GuidedSource(base, pool, cfg)
