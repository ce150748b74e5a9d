"""Guidance weights and blend, the score-space identity, and gating."""

import itertools

import numpy as np
import pytest

from famelab.errors import IncompatiblePoolError, InvalidArgumentError
from famelab.gmm import preset
from famelab.guidance import FAME_DEFAULTS, GuidanceConfig, blend, guided_source, weights
from famelab.metrics import ComponentTagScorer
from famelab.pool import PoolBuildConfig, build_pool
from famelab.sampler import AnalyticSource, SamplerConfig, _integrate_chunk, sample_batch
from famelab.schedule import derive_seed, make_schedule
from tests.oracles import analytic_score, guided_combination, ideal_denoiser


def combine(d1, d0, d_neg=None, w=1.0, f=0.0):
    """The blend at a step where both w and the replay term apply."""
    return blend(*weights(GuidanceConfig(w=w, f=f, tau=1.0), 0, 1), d1, d0, d_neg)


def fame_score_identity_check(spec, x, sigma: float, class_id, w: float, f: float, x_neg) -> float:
    """Max-abs residual between the score-space and denoiser-space forms of
    the guided update at one probe point.

    Score form:    (w+f) * s1(x) + (1-w) * s0(x) - f * s_neg
    Denoiser form: (blend(*weights(...), d1, d0, d_neg) - x) / sigma^2

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
    denoiser_form = (combine(d1, d0, d_neg, w=w, f=f) - x) / sigma**2

    s1 = analytic_score(spec, x, sigma, class_id)
    s0 = analytic_score(spec, x, sigma, None)
    s_neg = (d_neg - x) / sigma**2
    score_form = (w + f) * s1 + (1.0 - w) * s0 - f * s_neg
    return float(np.abs(denoiser_form - score_form).max())


class TestCombiners:
    def test_cfg_hand_values(self):
        assert combine(2.0, 1.0, w=1.5) == 2.5
        assert combine(2.0, 1.0, w=3.0) == 4.0
        np.testing.assert_array_equal(
            combine(np.array([1.0, 0.0]), np.array([0.0, 2.0]), w=2.0), [2.0, -2.0]
        )

    def test_cfg_w1_returns_conditional_object(self):
        d1 = np.array([1.0, 2.0])
        assert weights(GuidanceConfig(w=1.0), 0, 10) == (1.0, 0.0, 0.0)
        assert blend(1.0, 0.0, 0.0, d1) is d1
        assert combine(d1, None, w=1.0) is d1

    def test_fame_hand_values(self):
        # (w+f)*d1 + (1-w)*d0 - f*d_neg with w=1.5, f=0.5:
        # 2*2 + (-0.5)*1 - 0.5*4 = 1.5
        assert weights(GuidanceConfig(w=1.5, f=0.5, tau=1.0), 0, 10) == (2.0, -0.5, 0.5)
        assert combine(2.0, 1.0, 4.0, w=1.5, f=0.5) == 1.5
        assert combine(1.0, 0.0, 1.0, w=1.5, f=0.25) == 1.5

    def test_fame_f0_delegates_to_cfg(self):
        # f=0 gives d_neg weight 0: the term is skipped, so d_neg may be None
        d1, d0 = np.array([3.0, 1.0]), np.array([1.0, -1.0])
        assert weights(GuidanceConfig(w=2.0, f=0.0, tau=1.0), 0, 10) == (2.0, -1.0, 0.0)
        np.testing.assert_array_equal(combine(d1, d0, None, w=2.0, f=0.0), [5.0, 3.0])

    def test_fame_w1_drops_unconditional(self):
        d1, d_neg = np.array([2.0, 0.0]), np.array([1.0, 1.0])
        assert weights(GuidanceConfig(w=1.0, f=0.1, tau=1.0), 0, 10) == (1.1, 0.0, 0.1)
        np.testing.assert_allclose(
            combine(d1, None, d_neg, w=1.0, f=0.1), 1.1 * d1 - 0.1 * d_neg
        )

    def test_fame_self_negative_cancels(self):
        # d_neg = d1 collapses to plain CFG up to floating-point regrouping
        rng = np.random.default_rng(0)
        d1, d0 = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(
            combine(d1, d0, d1, w=1.5, f=0.3), combine(d1, d0, w=1.5), rtol=1e-12
        )


class TestBlendMatchesOracle:
    def test_every_step_of_the_grid(self):
        # the earlier four-function rule, bit for bit, and d1 itself where it
        # returned d1; a zero-weight term reaches blend as None, as in step
        T = 64
        d1, d0, d_neg = np.random.default_rng(5).standard_normal((3, 300, 2))
        grid = itertools.product(
            (0.0, 0.5, 1.0, 1.5, 3.0),
            (0.0, 0.02, 0.5),
            (0.0, 0.3, 1.0),
            (None, (0.2, 0.8)),
            (True, False),
        )
        for w, f, tau, interval, cond in grid:
            cfg = GuidanceConfig(w=w, f=f, tau=tau, cfg_interval=interval)
            for k in range(T + 1):
                want = guided_combination(cfg, k, T, cond, d1, d0, d_neg)
                a1, a0, an = weights(cfg, k, T, cond)
                got = blend(a1, a0, an, d1, d0 if a0 else None, d_neg if an else None)
                case = (w, f, tau, interval, cond, k)
                assert np.array_equal(got, want), case
                assert (got is d1) == (want is d1), case


class TestScoreIdentity:
    def setup_method(self):
        self.spec = preset("imbalanced2d")

    def test_cfg_identity(self):
        # (w*d1 + (1-w)*d0 - x)/sigma^2 == w*s1 + (1-w)*s0
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(2) * 4
            sigma = float(rng.uniform(0.05, 3.0))
            w = float(rng.uniform(0.0, 3.0))
            d1 = ideal_denoiser(self.spec, x, sigma, 2)
            d0 = ideal_denoiser(self.spec, x, sigma, None)
            lhs = (combine(d1, d0, w=w) - x) / sigma**2
            rhs = w * analytic_score(self.spec, x, sigma, 2) + (1 - w) * analytic_score(
                self.spec, x, sigma, None
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_fame_identity_residual(self):
        rng = np.random.default_rng(17)
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
    # the replay term applies where its weight, an, is nonzero
    def test_tau_one_active_from_first_step(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=1.0)
        assert weights(cfg, 0, 128)[2] == 0.1
        assert weights(cfg, 127, 128)[2] == 0.1

    def test_tau_zero_never_active(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.0)
        assert all(weights(cfg, k, 128)[2] == 0.0 for k in range(128))

    def test_tau_is_trailing_fraction(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.3)
        # k/128 >= 0.7 first holds at k = 90
        assert weights(cfg, 89, 128) == (1.5, -0.5, 0.0)
        assert weights(cfg, 90, 128) == (1.5 + 0.1, -0.5, 0.1)

    def test_f_zero_never_active(self):
        cfg = GuidanceConfig(w=1.5, f=0.0, tau=1.0)
        assert weights(cfg, 100, 128) == (1.5, -0.5, 0.0)

    def test_active_count_matches_fraction(self):
        cfg = GuidanceConfig(w=1.5, f=0.1, tau=0.25)
        active = sum(weights(cfg, k, 64)[2] != 0.0 for k in range(64))
        assert active == 16


class TestEffectiveW:
    # w is a1 - an, and 1 - a0
    def test_no_interval_is_constant(self):
        cfg = GuidanceConfig(w=2.5)
        assert weights(cfg, 0, 10) == (2.5, -1.5, 0.0)
        assert weights(cfg, 9, 10) == (2.5, -1.5, 0.0)

    def test_interval_bounds_inclusive(self):
        cfg = GuidanceConfig(w=2.5, cfg_interval=(0.2, 0.8))
        assert weights(cfg, 0, 10) == (1.0, 0.0, 0.0)
        assert weights(cfg, 2, 10) == (2.5, -1.5, 0.0)
        assert weights(cfg, 8, 10) == (2.5, -1.5, 0.0)
        assert weights(cfg, 9, 10) == (1.0, 0.0, 0.0)


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

    def check_compatible(self, schedule, dim, source_hash):
        pass

    def select_indices(self, seeds, class_ids=None):
        self.select_calls += 1
        return np.asarray(seeds, dtype=np.uint64).astype(np.int64) % self.n

    def replay_outputs(self, indices, step):
        self.replayed_steps.append(step)
        return np.zeros((len(indices), self.d))


class SpyBase:
    """Base source that records how many mixtures each denoise call asks for."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.asked = []

    def fingerprint(self):
        return self.base.fingerprint()

    def denoise(self, x, sigma, mixtures):
        self.asked.append(len(mixtures))
        return self.base.denoise(x, sigma, mixtures)


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
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_w1_f0_bitwise_matches_base(self):
        # the guided output is the base's conditional output itself, and the
        # base is asked for that one mixture only
        spy = SpyBase(self.base)
        src = guided_source(spy, None, GuidanceConfig(w=1.0, f=0.0))
        x = np.random.default_rng(4).standard_normal((6, 2)) * 3.0
        cls = np.array([1, 2, 1, 2, 2, 1])
        assert src.bind(self.sched, np.arange(6, dtype=np.uint64), cls) is None
        for k in (0, 7, 15):
            guided, d1 = src.step(x, k, self.sched, cls, None)
            [want] = self.base.denoise(x, self.sched.sigmas[k], [cls])
            assert guided is d1
            np.testing.assert_array_equal(d1, want)
        assert spy.asked == [1, 1, 1]

    def test_step_asks_only_for_nonzero_terms(self):
        # T=16: cfg_interval (0.2, 0.8) holds at k = 4..12, where the base is
        # asked for d1 and d0 and elsewhere for d1 alone; the pool is read
        # exactly where the replay weight is nonzero, k/16 >= 0.5
        cfg = GuidanceConfig(w=1.5, f=0.05, tau=0.5, cfg_interval=(0.2, 0.8))
        spy, pool = SpyBase(self.base), _SpyPool(4, 2)
        src = guided_source(spy, pool, cfg)
        x = np.random.default_rng(4).standard_normal((6, 2)) * 3.0
        cls = np.array([1, 2, 1, 2, 2, 1])
        neg = src.bind(self.sched, np.arange(6, dtype=np.uint64), cls)
        for k in range(16):
            guided, d1 = src.step(x, k, self.sched, cls, neg)
            d0 = self.base.denoise(x, self.sched.sigmas[k], [None])[0]
            want = guided_combination(cfg, k, 16, True, d1, d0, np.zeros((6, 2)))
            assert np.array_equal(guided, want), k
        assert spy.asked == [2 if 4 <= k <= 12 else 1 for k in range(16)]
        assert pool.replayed_steps == [k for k in range(16) if weights(cfg, k, 16)[2] != 0.0]
        assert pool.replayed_steps == list(range(8, 16))

    @pytest.mark.parametrize("f", [0.0, 0.05])
    def test_unconditional_asks_for_the_marginal_once(self, small_pool, f):
        # unconditionally d1 is d0, so w != 1 is run as w = 1: each call asks
        # the base for one mixture, and the float64 states are a w = 1 run's
        seeds = [derive_seed(3, -1, i) for i in range(5)]
        labels = [(None, i) for i in range(5)]
        states = {}
        for w in (1.5, 1.0):
            spy = SpyBase(self.base)
            src = guided_source(spy, small_pool if f else None, GuidanceConfig(w=w, f=f, tau=0.5))
            states[w], _ = _integrate_chunk(src, self.cfg, seeds, None, labels, False)
            assert spy.asked and set(spy.asked) == {1}
        np.testing.assert_array_equal(states[1.5], states[1.0])

    def test_recorded_outputs_are_conditional_not_combined(self, small_pool):
        # the cache must hold D1 at the trajectory's states even though the
        # integrator consumed the guided composite
        src = guided_source(self.base, small_pool, GuidanceConfig(w=2.0, f=0.05, tau=1.0))
        rec = sample_batch(src, self.cfg, 21, [1], 1)[0]
        for k in [0, 7, 15]:
            x = rec["states"][k].astype(np.float64)
            d1 = ideal_denoiser(self.spec, x, float(self.sched.sigmas[k]), 1)
            np.testing.assert_allclose(rec["outputs"][k], d1, rtol=1e-5, atol=1e-6)

    def test_fame_moves_away_from_replayed_direction(self, small_pool):
        # same seeds, growing f: endpoints drift monotonically in distance
        # from the replayed records' endpoints on average
        ends = {}
        for f in (0.0, 0.3):
            src = guided_source(
                self.base, small_pool, GuidanceConfig(w=1.5, f=f, tau=1.0)
            ) if f > 0 else guided_source(self.base, None, GuidanceConfig(w=1.5))
            ends[f] = sample_batch(src, self.cfg, 33, [1], 32)["states"][:, -1].astype(np.float64)
        neg_ends = small_pool.records["states"][:, -1].astype(np.float64)

        def mean_min_dist(pts):
            d2 = ((pts[:, None, :] - neg_ends[None, :, :]) ** 2).sum(-1)
            return np.sqrt(d2.min(axis=1)).mean()

        assert mean_min_dist(ends[0.3]) > mean_min_dist(ends[0.0])
