"""Denoiser-space guidance combiners.

Classifier-free guidance blends conditional and unconditional denoiser
outputs, w*d1 + (1-w)*d0.  The failure-escape extension adds a third term
that subtracts a replayed denoiser output taken from a stored low-quality
trajectory, (w+f)*d1 + (1-w)*d0 - f*d_neg, pushing mass away from the failure
modes those trajectories ended in.  The replay term is gated to the last tau
fraction of normalized denoising time; tau = 1 applies it from the very first
step, tau = 0 disables it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
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
        if not (np.isfinite(self.w) and self.w >= 0):
            raise InvalidArgumentError(f"w must be finite and >= 0, got {self.w}")
        if not (np.isfinite(self.f) and self.f >= 0):
            raise InvalidArgumentError(f"f must be finite and >= 0, got {self.f}")
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidArgumentError(f"tau must be in [0, 1], got {self.tau}")
        if self.cfg_interval is not None:
            lo, hi = self.cfg_interval
            if not 0.0 <= lo < hi <= 1.0:
                raise InvalidArgumentError(
                    f"cfg_interval must satisfy 0 <= lo < hi <= 1, got {self.cfg_interval}"
                )
            object.__setattr__(self, "cfg_interval", (float(lo), float(hi)))


# the reference operating point for replay guidance
FAME_DEFAULTS = GuidanceConfig(w=1.5, f=0.02, tau=0.3)


@dataclass
class StepContext:
    """Mutable per-chunk integration state shared between the sampler and
    score sources.

    seeds are the per-trajectory streams (one uint64 each); neg_indices is the
    pool record bound to each trajectory for its whole lifetime; sources set
    conditional_output so the sampler can record the plain conditional
    denoiser output even when guidance rewrites the combined one.
    """

    schedule: NoiseSchedule
    seeds: np.ndarray
    class_ids: np.ndarray | None = None
    step: int = 0
    neg_indices: np.ndarray | None = None
    conditional_output: np.ndarray | None = None

    def t_norm(self, k: int) -> float:
        """Normalized time of evaluation index k: 0 at sigma_max, 1 at 0."""
        return k / self.schedule.T


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
    """Wrap a base score source with CFG and optional failure replay.

    Implements the same evaluate/bind interface as the base sources.  The
    unconditional branch is only evaluated when the effective w differs from
    1, and the pool is only consulted inside the activation window, so plain
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

    def bind(self, ctx: StepContext) -> None:
        self.base.bind(ctx)
        if self.pool is not None:
            self.pool.check_compatible(ctx.schedule, self.dim)
            ctx.neg_indices = self.pool.select_indices(ctx.seeds, ctx.class_ids)

    def evaluate(self, x, sigma_index, class_ids, ctx: StepContext):
        d1 = self.base.evaluate(x, sigma_index, class_ids, ctx)
        ctx.conditional_output = d1
        T = ctx.schedule.T
        w = effective_w(self.cfg, sigma_index, T)
        active = self.pool is not None and replay_active(self.cfg, sigma_index, T)
        d0 = None
        if w != 1.0:
            d0 = self.base.evaluate(x, sigma_index, None, ctx)
        if active:
            d_neg = self.pool.replay_outputs(ctx.neg_indices, sigma_index)
            return fame_combine(d1, d0, d_neg, w, self.cfg.f)
        return cfg_combine(d1, d0, w)


def guided_source(base, pool, cfg: GuidanceConfig) -> GuidedSource:
    """Compose a base source with guidance; pool may be None when f = 0."""
    return GuidedSource(base, pool, cfg)
