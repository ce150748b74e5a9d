"""Guidance combiner arithmetic, the score-space identity, and gating."""

import numpy as np
import pytest

from famelab.errors import IncompatiblePoolError, InvalidArgumentError
from famelab.gmm import analytic_score, ideal_denoiser, preset
from famelab.guidance import (
    FAME_DEFAULTS,
    GuidanceConfig,
    cfg_combine,
    effective_w,
    fame_combine,
    guided_source,
    replay_active,
)
from famelab.metrics import ComponentTagScorer
from famelab.pool import FailurePool, PoolBuildConfig, build_pool
from famelab.sampler import AnalyticSource, SamplerConfig, sample_batch
from famelab.schedule import Rng, make_schedule


def fame_score_identity_check(spec, x, sigma: float, class_id, w: float, f: float, x_neg) -> float:
    """Max-abs residual between the score-space and denoiser-space forms of
    the guided update at one probe point.

    Score form:    (w+f) * s1(x) + (1-w) * s0(x) - f * s_neg
    Denoiser form: (fame_combine(d1, d0, d_neg, w, f) - x) / sigma^2

    The negative direction comes from a denoiser output produced at the
    replayed point x_neg but consumed as if it were the denoiser value for the
    current x, so its score contribution is (d_neg - x) / sigma^2; that is the
    only anchoring under which the two forms agree identically.
    """
    x = np.asarray(x, dtype=np.float64)
    x_neg = np.asarray(x_neg, dtype=np.float64)
    if not sigma > 0:
        raise InvalidArgumentError(f"identity check needs sigma > 0, got {sigma}")
    d1 = ideal_denoiser(spec, x, sigma, class_id)
    d0 = ideal_denoiser(spec, x, sigma, None)
    d_neg = ideal_denoiser(spec, x_neg, sigma, class_id)
    denoiser_form = (fame_combine(d1, d0, d_neg, w, f) - x) / sigma**2

    s1 = analytic_score(spec, x, sigma, class_id)
    s0 = analytic_score(spec, x, sigma, None)
    s_neg = (d_neg - x) / sigma**2
    score_form = (w + f) * s1 + (1.0 - w) * s0 - f * s_neg
    return float(np.abs(denoiser_form - score_form).max())


class TestCombiners:
    def test_cfg_hand_values(self):
        assert cfg_combine(2.0, 1.0, 1.5) == 2.5
        assert cfg_combine(2.0, 1.0, 3.0) == 4.0
        np.testing.assert_array_equal(
            cfg_combine(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 2.0), [2.0, -2.0]
        )

    def test_cfg_w1_returns_conditional_object(self):
        d1 = np.array([1.0, 2.0])
        assert cfg_combine(d1, None, 1.0) is d1

    def test_fame_hand_values(self):
        # (w+f)*d1 + (1-w)*d0 - f*d_neg with w=1.5, f=0.5:
        # 2*2 + (-0.5)*1 - 0.5*4 = 1.5
        assert fame_combine(2.0, 1.0, 4.0, 1.5, 0.5) == 1.5
        assert fame_combine(1.0, 0.0, 1.0, 1.5, 0.25) == 1.5

    def test_fame_f0_delegates_to_cfg(self):
        d1, d0 = np.array([3.0, 1.0]), np.array([1.0, -1.0])
        np.testing.assert_array_equal(
            fame_combine(d1, d0, None, 2.0, 0.0), cfg_combine(d1, d0, 2.0)
        )

    def test_fame_w1_drops_unconditional(self):
        d1, d_neg = np.array([2.0, 0.0]), np.array([1.0, 1.0])
        np.testing.assert_allclose(
            fame_combine(d1, None, d_neg, 1.0, 0.1), 1.1 * d1 - 0.1 * d_neg
        )

    def test_fame_self_negative_cancels(self):
        # d_neg = d1 collapses to plain CFG up to floating-point regrouping
        rng = Rng(0)
        d1, d0 = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(
            fame_combine(d1, d0, d1, 1.5, 0.3), cfg_combine(d1, d0, 1.5), rtol=1e-12
        )


class TestScoreIdentity:
    def setup_method(self):
        self.spec = preset("imbalanced2d")

    def test_cfg_identity(self):
        # (w*d1 + (1-w)*d0 - x)/sigma^2 == w*s1 + (1-w)*s0
        rng = Rng(3)
        for _ in range(100):
            x = rng.standard_normal(2) * 4
            sigma = float(rng.uniform(0.05, 3.0))
            w = float(rng.uniform(0.0, 3.0))
            d1 = ideal_denoiser(self.spec, x, sigma, 2)
            d0 = ideal_denoiser(self.spec, x, sigma, None)
            lhs = (cfg_combine(d1, d0, w) - x) / sigma**2
            rhs = w * analytic_score(self.spec, x, sigma, 2) + (1 - w) * analytic_score(
                self.spec, x, sigma, None
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_fame_identity_residual(self):
        rng = Rng(17)
        worst = 0.0
        for _ in range(1000):
            x = rng.standard_normal(2) * 4
            x_neg = rng.standard_normal(2) * 4
            sigma = float(rng.uniform(0.05, 3.0))
            w = [1.0, 1.5, 3.0][int(rng.integers(0, 3))]
            f = [0.0, 0.02, 0.3][int(rng.integers(0, 3))]
            cid = int(rng.integers(1, 9))
            worst = max(
                worst, fame_score_identity_check(self.spec, x, sigma, cid, w, f, x_neg)
            )
        assert worst < 1e-9

    def test_identity_needs_positive_sigma(self):
        with pytest.raises(InvalidArgumentError):
            fame_score_identity_check(
                self.spec, np.zeros(2), 0.0, 1, 1.5, 0.1, np.ones(2)
            )


class TestGating:
    def test_tau_one_active_from_first_step(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=1.0)
        assert replay_active(cfg, 0, 128)
        assert replay_active(cfg, 127, 128)

    def test_tau_zero_never_active(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.0)
        assert not any(replay_active(cfg, k, 128) for k in range(128))

    def test_tau_is_trailing_fraction(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.3)
        # k/128 >= 0.7 first holds at k = 90
        assert not replay_active(cfg, 89, 128)
        assert replay_active(cfg, 90, 128)

    def test_f_zero_never_active(self):
        cfg = GuidanceConfig(w=1.5, f=0.0, tau=1.0)
        assert not replay_active(cfg, 100, 128)

    def test_active_count_matches_fraction(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.25)
        active = sum(replay_active(cfg, k, 64) for k in range(64))
        assert active == 16


class TestEffectiveW:
    def test_no_interval_is_constant(self):
        cfg = GuidanceConfig(w=2.5)
        assert effective_w(cfg, 0, 10) == 2.5
        assert effective_w(cfg, 9, 10) == 2.5

    def test_interval_bounds_inclusive(self):
        cfg = GuidanceConfig(w=2.5, cfg_interval=(0.2, 0.8))
        assert effective_w(cfg, 0, 10) == 1.0
        assert effective_w(cfg, 2, 10) == 2.5
        assert effective_w(cfg, 8, 10) == 2.5
        assert effective_w(cfg, 9, 10) == 1.0


class TestConfigValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidArgumentError):
            GuidanceConfig(w=-0.5)
        with pytest.raises(InvalidArgumentError):
            GuidanceConfig(f=-0.1)
        with pytest.raises(InvalidArgumentError):
            GuidanceConfig(tau=1.5)
        with pytest.raises(InvalidArgumentError):
            GuidanceConfig(w=np.inf)

    def test_rejects_bad_interval(self):
        for iv in [(0.8, 0.2), (-0.1, 0.5), (0.0, 1.2)]:
            with pytest.raises(InvalidArgumentError):
                GuidanceConfig(cfg_interval=iv)

    def test_defaults(self):
        assert FAME_DEFAULTS.w == 1.5
        assert FAME_DEFAULTS.f == 0.02
        assert FAME_DEFAULTS.tau == 0.3


class _SpyPool:
    """Duck-typed pool that records every consultation."""

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.select_calls = 0
        self.replayed_steps = []

    def __len__(self):
        return self.n

    def check_compatible(self, schedule, dim):
        pass

    def select_indices(self, seeds, class_ids=None):
        self.select_calls += 1
        return np.asarray(seeds, dtype=np.uint64).astype(np.int64) % self.n

    def replay_outputs(self, indices, step):
        self.replayed_steps.append(step)
        return np.zeros((len(indices), self.d))


@pytest.fixture(scope="module")
def small_pool():
    spec = preset("imbalanced2d")
    sched = make_schedule("karras-like", 16, 0.02, 8.0)
    cfg = SamplerConfig(schedule=sched)
    src = guided_source(AnalyticSource(spec), None, GuidanceConfig(w=1.5))
    return build_pool(
        src,
        cfg,
        ComponentTagScorer(spec),
        PoolBuildConfig(n_candidates_per_class=40, n_f=4, mode="global", seed=2),
        [1, 2],
    )


class TestGuidedSource:
    def setup_method(self):
        self.spec = preset("imbalanced2d")
        self.sched = make_schedule("karras-like", 16, 0.02, 8.0)
        self.cfg = SamplerConfig(schedule=self.sched)
        self.base = AnalyticSource(self.spec)

    def test_f_positive_requires_pool(self):
        with pytest.raises(InvalidArgumentError):
            guided_source(self.base, None, GuidanceConfig(w=1.5, f=0.1))
        with pytest.raises(InvalidArgumentError):
            guided_source(self.base, _SpyPool(0, 2), GuidanceConfig(w=1.5, f=0.1))

    def test_pool_consulted_only_inside_window(self):
        # tau=0.5, T=16: active evaluation indices are exactly 8..15
        spy = _SpyPool(4, 2)
        src = guided_source(self.base, spy, GuidanceConfig(w=1.5, f=0.05, tau=0.5))
        sample_batch(src, self.cfg, 5, [1], 3)
        assert set(spy.replayed_steps) == set(range(8, 16))

    def test_binding_happens_once_per_chunk(self):
        spy = _SpyPool(4, 2)
        src = guided_source(self.base, spy, GuidanceConfig(w=1.5, f=0.05, tau=0.5))
        sample_batch(src, self.cfg, 5, [1], 3)
        assert spy.select_calls == 1

    def test_pool_ignored_when_f_zero(self):
        spy = _SpyPool(4, 2)
        src = guided_source(self.base, spy, GuidanceConfig(w=1.5, f=0.0))
        sample_batch(src, self.cfg, 5, [1], 3)
        assert spy.select_calls == 0
        assert spy.replayed_steps == []

    def test_incompatible_pool_raises_at_bind(self, small_pool):
        other = make_schedule("karras-like", 32, 0.02, 8.0)
        src = guided_source(self.base, small_pool, FAME_DEFAULTS)
        with pytest.raises(IncompatiblePoolError):
            sample_batch(src, SamplerConfig(schedule=other), 5, [1], 2)

    def test_f0_bitwise_matches_cfg(self, small_pool):
        a = sample_batch(
            guided_source(self.base, None, GuidanceConfig(w=1.5)), self.cfg, 9, [1, 2], 4
        )
        b = sample_batch(
            guided_source(self.base, small_pool, GuidanceConfig(w=1.5, f=0.0, tau=0.3)),
            self.cfg,
            9,
            [1, 2],
            4,
        )
        assert all(x == y for x, y in zip(a, b))

    def test_w1_f0_bitwise_matches_base(self):
        a = sample_batch(self.base, self.cfg, 9, [1, 2], 4)
        b = sample_batch(
            guided_source(self.base, None, GuidanceConfig(w=1.0, f=0.0)),
            self.cfg,
            9,
            [1, 2],
            4,
        )
        assert all(x == y for x, y in zip(a, b))

    def test_recorded_outputs_are_conditional_not_combined(self, small_pool):
        # the cache must hold D1 at the trajectory's states even though the
        # integrator consumed the guided composite
        src = guided_source(self.base, small_pool, GuidanceConfig(w=2.0, f=0.05, tau=1.0))
        rec = sample_batch(src, self.cfg, 21, [1], 1)[0]
        for k in [0, 7, 15]:
            x = rec.states[k].astype(np.float64)
            d1 = ideal_denoiser(self.spec, x, float(self.sched.sigmas[k]), 1)
            np.testing.assert_allclose(rec.denoiser_outputs[k], d1, rtol=1e-5, atol=1e-6)

    def test_fame_moves_away_from_replayed_direction(self, small_pool):
        # same seeds, growing f: endpoints drift monotonically in distance
        # from the replayed records' endpoints on average
        ends = {}
        for f in (0.0, 0.3):
            src = guided_source(
                self.base, small_pool, GuidanceConfig(w=1.5, f=f, tau=1.0)
            ) if f > 0 else guided_source(self.base, None, GuidanceConfig(w=1.5))
            recs = sample_batch(src, self.cfg, 33, [1], 32)
            ends[f] = np.stack([r.final_sample for r in recs]).astype(np.float64)
        neg_ends = np.stack([r.final_sample for r in small_pool.records]).astype(np.float64)

        def mean_min_dist(pts):
            d2 = ((pts[:, None, :] - neg_ends[None, :, :]) ** 2).sum(-1)
            return np.sqrt(d2.min(axis=1)).mean()

        assert mean_min_dist(ends[0.3]) > mean_min_dist(ends[0.0])
