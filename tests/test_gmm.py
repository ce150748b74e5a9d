"""Closed-form mixture quantities checked against independent oracles.

The noised density is checked against direct convolution quadrature, the
score against central finite differences of the log density, and the
posterior-mean denoiser against both explicit quadrature and the score
identity D(x) = x + sigma^2 * score(x).  The score and the denoiser are the
oracles in `tests.oracles`, the mixture kernels applied to one mixture's own
components, which the package's sources must match bit for bit.
"""

import copy
import math

import numpy as np
import pytest
from scipy import integrate

from famelab.errors import (
    DegeneratePointError,
    InvalidArgumentError,
    NotFoundError,
)
from famelab.gmm import (
    GmmComponent,
    PRESET_NAMES,
    GmmSpec,
    check_points,
    choice_cdf,
    exact_sampler,
    load_spec,
    noised_log_density,
    preset,
    responsibilities,
    sample_clean_batch,
    save_spec,
)
from famelab import gmm
from famelab.config import ExperimentConfig
from famelab.schedule import make_schedule
from tests.oracles import analytic_score, exact_sampler_choice, gmm_eval, ideal_denoiser, mixture_arrays


def projected_density_1d(spec: GmmSpec, u, class_id=None):
    """Exact 1-D density of the projection u . x under the clean mixture."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (spec.dim,):
        raise InvalidArgumentError(f"projection must have shape ({spec.dim},)")
    means, qmats, lams, logw = mixture_arrays(spec, class_id)
    m = means @ u
    qu = np.einsum("kab,a->kb", qmats, u)
    v = np.einsum("kb,kb->k", lams * qu, qu)
    w = np.exp(logw) / np.exp(logw).sum()

    def density(t):
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        comp = np.exp(-0.5 * (tt[:, None] - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
        out = comp @ w
        return float(out[0]) if scalar else out

    return density


def two_mode_1d():
    """1-D mixture used throughout: well-separated modes, unequal weights."""
    return GmmSpec(
        {
            1: [
                GmmComponent(np.array([-2.0]), np.array([[0.25]]), 0.7, 2.6),
                GmmComponent(np.array([3.0]), np.array([[1.0]]), 0.3, 1.4),
            ]
        },
        {1: 1.0},
    )


def skewed_2d():
    """Two classes in 2-D with anisotropic, rotated covariances."""
    rot = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])
    cov_a = rot @ np.diag([0.8, 0.1]) @ rot.T
    return GmmSpec(
        {
            1: [GmmComponent(np.array([1.0, -1.0]), cov_a, 1.0, 2.6)],
            2: [
                GmmComponent(np.array([-2.0, 2.0]), 0.3 * np.eye(2), 0.5, 2.6),
                GmmComponent(np.array([0.0, 3.0]), np.array([[0.5, 0.2], [0.2, 0.4]]), 0.5, 1.4),
            ],
        },
        {1: 0.25, 2: 0.75},
    )


class TestDensityAgainstQuadrature:
    def test_noised_density_is_clean_density_convolved(self):
        """p(x; sigma) must equal the integral of p0(y) N(x; y, sigma^2)."""
        spec = two_mode_1d()
        clean = projected_density_1d(spec, np.array([1.0]), class_id=1)
        for sigma in (0.3, 1.0, 2.7):
            for x in (-3.0, -0.5, 0.9, 4.2):
                expected, err = integrate.quad(
                    lambda y: clean(y)
                    * math.exp(-0.5 * (x - y) ** 2 / sigma**2)
                    / math.sqrt(2 * math.pi * sigma**2),
                    -40.0,
                    40.0,
                    limit=200,
                )
                assert err < 1e-8
                got = math.exp(noised_log_density(spec, np.array([x]), sigma, 1))
                np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_single_gaussian_hand_value(self):
        """N(0,1) noised by sigma=1 is N(0,2); at x=0 the log density is
        -log(4 pi)/2."""
        sp = GmmSpec({1: [GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.6)]}, {1: 1.0})
        got = noised_log_density(sp, np.zeros(1), 1.0, 1)
        assert got == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-12)

    def test_sigma_zero_is_clean_density(self):
        spec = two_mode_1d()
        x = np.array([-2.0])
        expected = 0.7 * math.exp(0.0) / math.sqrt(2 * math.pi * 0.25) * math.exp(
            0.0
        ) + 0.3 * math.exp(-0.5 * 25.0) / math.sqrt(2 * math.pi)
        got = math.exp(noised_log_density(spec, x, 0.0, 1))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_far_point_underflows_to_minus_inf(self):
        spec = two_mode_1d()
        assert noised_log_density(spec, np.array([1e200]), 1.0, 1) == -math.inf


class TestScoreAgainstFiniteDifferences:
    def test_score_matches_fd_1d(self):
        spec = two_mode_1d()
        h = 1e-5
        for sigma in (0.1, 0.8, 3.0):
            for x in (-2.5, 0.1, 1.7, 5.0):
                fd = (
                    noised_log_density(spec, np.array([x + h]), sigma, 1)
                    - noised_log_density(spec, np.array([x - h]), sigma, 1)
                ) / (2 * h)
                got = analytic_score(spec, np.array([x]), sigma, 1)[0]
                np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)

    def test_score_matches_fd_2d_all_packs(self):
        spec = skewed_2d()
        rng = np.random.default_rng(7)
        h = 1e-5
        for class_id in (1, 2, None):
            for _ in range(20):
                x = rng.uniform(-4, 4, 2)
                sigma = float(rng.uniform(0.1, 3.0))
                got = analytic_score(spec, x, sigma, class_id)
                for a in range(2):
                    e = np.zeros(2)
                    e[a] = h
                    fd = (
                        noised_log_density(spec, x + e, sigma, class_id)
                        - noised_log_density(spec, x - e, sigma, class_id)
                    ) / (2 * h)
                    np.testing.assert_allclose(got[a], fd, rtol=2e-6, atol=1e-7)

    def test_single_gaussian_hand_value(self):
        sp = GmmSpec({1: [GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.6)]}, {1: 1.0})
        got = analytic_score(sp, np.array([2.0]), 1.0, 1)
        np.testing.assert_allclose(got, [-1.0], atol=1e-14)


class TestDenoiser:
    def test_posterior_mean_against_quadrature(self):
        """E[x0 | x] from responsibilities must match direct quadrature of
        y p0(y) N(x; y, sigma^2) / p(x; sigma)."""
        spec = two_mode_1d()
        clean = projected_density_1d(spec, np.array([1.0]), class_id=1)
        for sigma, x in ((0.5, 0.3), (1.5, -1.0), (2.0, 4.0)):
            num, _ = integrate.quad(
                lambda y: y
                * clean(y)
                * math.exp(-0.5 * (x - y) ** 2 / sigma**2),
                -40.0,
                40.0,
                limit=200,
            )
            den, _ = integrate.quad(
                lambda y: clean(y) * math.exp(-0.5 * (x - y) ** 2 / sigma**2),
                -40.0,
                40.0,
                limit=200,
            )
            got = ideal_denoiser(spec, np.array([x]), sigma, 1)[0]
            np.testing.assert_allclose(got, num / den, rtol=1e-9)

    def test_score_identity_everywhere(self):
        """The two independent routes (posterior means vs x + sigma^2 score)
        must agree to 1e-10, conditional and marginal, random anisotropic
        probes."""
        spec = skewed_2d()
        rng = np.random.default_rng(11)
        worst = 0.0
        for class_id in (1, 2, None):
            for _ in range(100):
                x = rng.uniform(-5, 5, 2)
                sigma = float(rng.uniform(0.05, 4.0))
                d = ideal_denoiser(spec, x, sigma, class_id)
                s = analytic_score(spec, x, sigma, class_id)
                worst = max(worst, np.abs(d - (x + sigma**2 * s)).max())
        assert worst < 1e-10

    def test_single_gaussian_hand_value(self):
        """Posterior mean of N(0,1) seen through sigma=1 noise at x=2 is
        2 * 1/(1+1) = 1."""
        sp = GmmSpec({1: [GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.6)]}, {1: 1.0})
        got = ideal_denoiser(sp, np.array([2.0]), 1.0, 1)
        np.testing.assert_allclose(got, [1.0], atol=1e-14)

    def test_batch_matches_single(self):
        spec = skewed_2d()
        X = np.random.default_rng(3).uniform(-3, 3, (8, 2))
        batch = ideal_denoiser(spec, X, 0.7, 2)
        for i in range(8):
            np.testing.assert_array_equal(batch[i], ideal_denoiser(spec, X[i], 0.7, 2))

    def test_sigma_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ideal_denoiser(two_mode_1d(), np.array([0.0]), 0.0, 1)


class TestResponsibilities:
    def test_sum_to_one_and_match_bayes(self):
        spec = two_mode_1d()
        x = np.array([0.4])
        r = responsibilities(spec, x, 1, sigma=0.0)
        l1 = 0.7 * math.exp(-0.5 * (0.4 + 2.0) ** 2 / 0.25) / math.sqrt(2 * math.pi * 0.25)
        l2 = 0.3 * math.exp(-0.5 * (0.4 - 3.0) ** 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(r, [l1 / (l1 + l2), l2 / (l1 + l2)], rtol=1e-12)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mahalanobis(self):
        """At sigma = 0 the quadratic form `GmmSpec.evaluate` returns is the
        squared Mahalanobis distance to each component."""
        spec = two_mode_1d()
        _, X = check_points(spec, np.array([-1.0]), 0.0)
        [(_, _, _, m2)] = spec.evaluate(X, 0.0, [1])
        np.testing.assert_allclose(m2[:, 0], [(1.0**2) / 0.25, 4.0**2 / 1.0], rtol=1e-12)


def assert_draws_like_choice(cdf, weights):
    """cdf.searchsorted over rng.random(n) equals rng.choice with the
    normalised weights, indices and generator state, over many seeds and n."""
    for seed in range(40):
        for n in (1, 3, 256):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.choice(len(weights), size=n, p=weights / weights.sum())
            np.testing.assert_array_equal(cdf.searchsorted(b.random(n), side="right"), want)
            assert a.bit_generator.state == b.bit_generator.state


class TestExactSampler:
    def test_moments(self):
        spec = skewed_2d()
        x = exact_sampler(spec, np.random.default_rng(0), class_id=1, n=200_000)
        comp = spec.classes[1][0]
        np.testing.assert_allclose(x.mean(axis=0), comp.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), comp.cov, atol=0.02)

    def test_mixture_weight_fractions(self):
        """A 0.9/0.1 mixture must produce component fractions within 0.01 at
        n = 100000."""
        spec = preset("imbalanced2d")
        x = exact_sampler(spec, np.random.default_rng(12), class_id=1, n=100_000)
        r = responsibilities(spec, x, 1, sigma=0.0)
        frac_bad = (r.argmax(axis=1) == 1).mean()
        assert frac_bad == pytest.approx(0.1, abs=0.01)

    def test_marginal_uses_priors(self):
        spec = skewed_2d()
        x = exact_sampler(spec, np.random.default_rng(5), class_id=None, n=50_000)
        near_class1 = (np.linalg.norm(x - np.array([1.0, -1.0]), axis=1) < 2.5).mean()
        assert near_class1 == pytest.approx(0.25, abs=0.02)

    def test_deterministic(self):
        spec = skewed_2d()
        a = exact_sampler(spec, np.random.default_rng(9), class_id=2, n=64)
        b = exact_sampler(spec, np.random.default_rng(9), class_id=2, n=64)
        np.testing.assert_array_equal(a, b)

    def test_clean_batch_by_class_vector(self):
        spec = skewed_2d()
        ids = np.array([1, 2, 2, 1, 2])
        a = sample_clean_batch(spec, np.random.default_rng(4), ids)
        b = sample_clean_batch(spec, np.random.default_rng(4), ids)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (5, 2)

    def test_validation(self):
        for n in (0, True, 2.5):
            with pytest.raises(InvalidArgumentError):
                exact_sampler(two_mode_1d(), np.random.default_rng(0), 1, n)

    @pytest.mark.parametrize("name", ["balanced2d", "imbalanced2d", "skewed"])
    def test_draws_match_generator_choice(self, name):
        """Every mixture row's cached CDF takes the indices `Generator.choice`
        takes with the row's weights and leaves the generator in the same
        state, so exact_sampler gives the choice-based sampler's bits; the
        class priors `train` draws from do the same through `choice_cdf`."""
        spec = skewed_2d() if name == "skewed" else preset(name)
        for class_id in [*spec.class_ids, None]:
            r = spec._row(class_id)
            assert_draws_like_choice(spec._cdfs[r], np.exp(spec._logw)[r, : spec._width[r]])
            for seed in range(40):
                for n in (1, 3, 256):
                    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                    want = exact_sampler_choice(spec, a, class_id, n)
                    assert exact_sampler(spec, b, class_id, n).tobytes() == want.tobytes()
                    assert a.bit_generator.state == b.bit_generator.state
        priors = np.array([spec.class_priors[c] for c in spec.class_ids])
        assert_draws_like_choice(choice_cdf(priors / priors.sum()), priors)


class TestProjectedDensity:
    def test_axis_projection_matches_hand_formula(self):
        spec = two_mode_1d()
        f = projected_density_1d(spec, np.array([1.0]), 1)
        x = 0.7
        expected = 0.7 * math.exp(-0.5 * (x + 2) ** 2 / 0.25) / math.sqrt(
            2 * math.pi * 0.25
        ) + 0.3 * math.exp(-0.5 * (x - 3) ** 2) / math.sqrt(2 * math.pi)
        assert f(x) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one(self):
        spec = skewed_2d()
        u = np.array([0.6, 0.8])
        f = projected_density_1d(spec, u, None)
        total, _ = integrate.quad(f, -30, 30, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_projected_samples(self):
        spec = skewed_2d()
        u = np.array([0.6, 0.8])
        f = projected_density_1d(spec, u, 2)
        x = exact_sampler(spec, np.random.default_rng(2), 2, 100_000) @ u
        mean, _ = integrate.quad(lambda t: t * f(t), -30, 30, limit=200)
        assert x.mean() == pytest.approx(mean, abs=0.02)


class TestPresets:
    def test_balanced_is_single_top_mode_per_class(self):
        spec = preset("balanced2d")
        assert spec.class_ids == tuple(range(1, 9))
        for cid in spec.class_ids:
            comps = spec.classes[cid]
            assert len(comps) == 1
            assert comps[0].quality_tag > 2.5

    def test_imbalanced_shares_a_wide_low_mode(self):
        spec = preset("imbalanced2d")
        bads = [spec.classes[c][1] for c in spec.class_ids]
        for b in bads:
            np.testing.assert_array_equal(b.mean, bads[0].mean)
            np.testing.assert_array_equal(b.cov, bads[0].cov)
            assert b.weight == pytest.approx(0.1)
            assert b.quality_tag < 2.0
        goods = [spec.classes[c][0] for c in spec.class_ids]
        for g in goods:
            assert g.weight == pytest.approx(0.9)
            assert g.quality_tag > 2.5

    def test_mode_separation_at_least_six_sigma(self):
        spec = preset("imbalanced2d")
        for c in spec.class_ids:
            good, bad = spec.classes[c]
            dist = np.linalg.norm(good.mean - bad.mean)
            widest = math.sqrt(max(np.linalg.eigvalsh(good.cov).max(), np.linalg.eigvalsh(bad.cov).max()))
            assert dist / widest >= 6.0

    def test_unknown_preset(self):
        with pytest.raises(NotFoundError):
            preset("spiral")


class TestComponentTable:
    def test_shared_mode_is_one_entry(self):
        spec = preset("imbalanced2d")
        assert len(spec.means) == len(spec.qmats) == len(spec.lams) == 9
        bad = spec.mixture(1)[0][1]
        assert all(spec.mixture(c)[0][1] == bad for c in spec.class_ids)
        marginal = spec.mixture(None)[0]
        assert len(marginal) == 16 and len(set(marginal.tolist())) == 9
        assert len(preset("balanced2d").means) == 8

    def test_near_equal_components_stay_apart(self):
        mean = np.array([0.5, -0.25])
        nudged = np.array([np.nextafter(0.5, 1.0), -0.25])
        cov = 0.3 * np.eye(2)
        spec = GmmSpec(
            {
                1: [GmmComponent(mean, cov, 1.0, 2.0)],
                2: [GmmComponent(nudged, cov, 1.0, 2.0)],
                3: [GmmComponent(mean.copy(), cov.copy(), 1.0, 1.0)],
                4: [GmmComponent(mean, np.nextafter(cov, 1.0), 1.0, 2.0)],
            },
            {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25},
        )
        # the same bytes (the tag aside) share an entry; one ulp apart does not
        assert [int(spec.mixture(c)[0][0]) for c in spec.class_ids] == [0, 1, 0, 2]

    def test_evaluate_checks_its_mixtures(self):
        spec = preset("imbalanced2d")
        X = np.zeros((3, 2))
        with pytest.raises(NotFoundError):
            spec.evaluate(X, 1.0, [9])
        with pytest.raises(NotFoundError):
            spec.evaluate(X, 1.0, [None, np.array([1, 9, 2])])
        with pytest.raises(InvalidArgumentError):
            spec.evaluate(X, 1.0, [np.array([1, 2])])
        # no items, no outputs
        assert spec.evaluate(X, 1.0, []) == []
        assert spec.evaluate(X, 1.0, [], {}) == []
        # the one-mixture functions take one class id, not one per point
        with pytest.raises(InvalidArgumentError):
            responsibilities(spec, X, np.array([1, 1, 1]))
        # a bool or a float is no class id, nor is an array of them
        for bad in (True, 1.0, np.True_, np.float64(1.0)):
            for call in (
                lambda: spec.evaluate(X, 1.0, [bad]),
                lambda: responsibilities(spec, X, bad),
                lambda: noised_log_density(spec, X, 1.0, bad),
                lambda: exact_sampler(spec, np.random.default_rng(0), bad),
            ):
                with pytest.raises(NotFoundError):
                    call()
        for bad in (np.ones(3, dtype=bool), np.array([1.0, 2.0, 1.0])):
            with pytest.raises(NotFoundError):
                spec.evaluate(X, 1.0, [bad])
            with pytest.raises(NotFoundError):
                spec.evaluate(X, 1.0, [None, bad])

    def test_packs_hold_each_components_own_arrays(self):
        for spec in (preset("imbalanced2d"), skewed_2d()):
            mixtures = [(cid, [(c, 1.0) for c in spec.classes[cid]]) for cid in spec.class_ids]
            marginal = [(c, spec.class_priors[k]) for k in spec.class_ids for c in spec.classes[k]]
            mixtures.append((None, marginal))
            for cid, comps in mixtures:
                cols, logw, tags = spec.mixture(cid)
                means, qmats, lams, _ = mixture_arrays(spec, cid)
                assert len(cols) == len(logw) == len(tags) == len(comps)
                for i, (c, prior) in enumerate(comps):
                    lam, q = np.linalg.eigh(c.cov)
                    np.testing.assert_array_equal(means[i], c.mean)
                    np.testing.assert_array_equal(lams[i], lam)
                    np.testing.assert_array_equal(qmats[i], q)
                    assert np.exp(logw[i]) == pytest.approx(c.weight * prior, rel=1e-12)
                    assert tags[i] == c.quality_tag

    @pytest.mark.parametrize(
        "bad",
        [0, 9, -1, "1", [1], (1,), np.array(1), np.array([1]), np.array([1, 2]), True, 1.0,
         np.array([True]), np.array([1.0])],
    )
    def test_mixture_unknown_id_is_not_found(self, bad):
        # an id given as an array or a list is no class id: NotFoundError,
        # never the TypeError of an unhashable key
        with pytest.raises(NotFoundError):
            preset("imbalanced2d").mixture(bad)


def three_widths_2d():
    """Classes of 1, 2 and 3 components with rotated covariances, one
    component shared by classes 2 and 3, so a per-point item reduces in
    three width groups."""
    rot = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
    shared = GmmComponent(np.array([0.0, 0.5]), rot @ np.diag([0.9, 0.2]) @ rot.T, 0.3, 1.4)
    return GmmSpec(
        {
            1: [GmmComponent(np.array([3.0, -1.0]), rot.T @ np.diag([0.5, 0.1]) @ rot, 1.0, 2.6)],
            2: [GmmComponent(np.array([-2.0, 2.0]), 0.3 * np.eye(2), 0.7, 2.6), shared],
            3: [
                GmmComponent(np.array([1.0, 3.0]), np.array([[0.5, 0.2], [0.2, 0.4]]), 0.5, 2.6),
                shared,
                GmmComponent(np.array([-3.0, -2.0]), 0.6 * np.eye(2), 0.2, 2.0),
            ],
        },
        {1: 0.2, 2: 0.3, 3: 0.5},
    )


def eye_widths_2d():
    """Classes of 1, 2 and 3 components with isotropic covariances, so that
    every Q is exactly I, one component shared by classes 2 and 3, and
    -0.0 in mean coordinates."""
    shared = GmmComponent(np.array([-0.0, 0.5]), 0.8 * np.eye(2), 0.3, 1.4)
    return GmmSpec(
        {
            1: [GmmComponent(np.array([3.0, -0.0]), 0.4 * np.eye(2), 1.0, 2.6)],
            2: [GmmComponent(np.array([-2.0, 2.0]), 0.3 * np.eye(2), 0.7, 2.6), shared],
            3: [
                GmmComponent(np.array([0.0, 3.0]), 0.5 * np.eye(2), 0.5, 2.6),
                shared,
                GmmComponent(np.array([-3.0, -2.0]), 0.6 * np.eye(2), 0.2, 2.0),
            ],
        },
        {1: 0.2, 2: 0.3, 3: 0.5},
    )


def rotated_spec(d, seed):
    """Three classes of 1, 2 and 3 random components in d dimensions (rotated
    for d >= 2), one shared by classes 2 and 3, with -0.0 in a mean
    coordinate."""
    rng = np.random.default_rng(seed)

    def comp(weight, zero=False):
        a = rng.standard_normal((d, d))
        mean = rng.standard_normal(d) * 2.0
        if zero:
            mean[0] = -0.0
        return GmmComponent(mean, a @ a.T + 0.2 * np.eye(d), weight, 1.0 + rng.random())

    shared = comp(0.3, zero=True)
    classes = {1: [comp(1.0)], 2: [comp(0.7), shared], 3: [comp(0.5), shared, comp(0.2)]}
    return GmmSpec(classes, {1: 0.2, 2: 0.3, 3: 0.5})


def evaluate_bytes(spec, X, sigma, mixtures, scratch=None):
    """`evaluate`'s outputs as bytes, taken before a later call with the
    same scratch can overwrite its arrays."""
    out = spec.evaluate(X, sigma, mixtures, scratch)
    return [[None if a is None else (a.dtype, a.shape, a.tobytes()) for a in item] for item in out]


class TestEvaluatePlan:
    """`evaluate` keeps its plan of each item list in a scratch dict: the
    bits do not change, and a plan is reused only for equal n and items."""

    @pytest.mark.parametrize("spec", [preset("imbalanced2d"), three_widths_2d()], ids=["imbalanced2d", "widths"])
    def test_scratch_gives_the_same_bits(self, spec):
        cfg = ExperimentConfig()
        sched = make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max)
        assert len(sched.sigmas) == 65
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 2)) * 4.0
        ids = rng.choice(np.array(spec.class_ids), size=300)
        scratch = {}
        for sigma in sched.sigmas:
            # the sampler's two lists alternate, as under cfg_interval
            for mixtures in ([ids, None], [ids], [spec.class_ids[-1], None, ids]):
                with_plan = evaluate_bytes(spec, X, sigma, mixtures, scratch)
                assert with_plan == evaluate_bytes(spec, X, sigma, mixtures)
        assert sorted(scratch["gmm_plans"]) == [1, 2, 3]

    def test_plan_is_reused_only_for_equal_items(self):
        spec = three_widths_2d()
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2)) * 3.0
        ids = rng.integers(1, 4, size=40)
        scratch = {}

        def same(X, mixtures):
            assert evaluate_bytes(spec, X, 0.7, mixtures, scratch) == evaluate_bytes(spec, X, 0.7, mixtures)

        same(X, [ids, None])
        ids[:20] = 3  # the same array, changed in place
        same(X, [ids, None])
        same(X, [rng.integers(1, 4, size=40), None])  # another array, same n
        same(X, [1, None])
        same(X[:25], [1, None])  # another n, the same items
        # each equal to the plan's items, 1 or the int8 ones' bytes, but no class ids
        for plan, bad in (([1, 2], [True, 2]), ([np.ones(40, dtype=np.int8), None], [np.ones(40, dtype=bool), None])):
            same(X, plan)
            for _ in range(2):
                with pytest.raises(NotFoundError):
                    spec.evaluate(X, 0.7, bad, scratch)
        bad = ids.copy()
        bad[7] = 9
        for _ in range(2):
            for s in (scratch, None):
                with pytest.raises(NotFoundError):
                    spec.evaluate(X, 0.7, [bad, None], s)
        bad[7] = 2  # mended in place: planned anew, not refused or reused
        same(X, [bad, None])

    @pytest.mark.parametrize(
        "spec",
        [preset("imbalanced2d"), preset("balanced2d"), eye_widths_2d(), three_widths_2d(),
         rotated_spec(1, 1), rotated_spec(3, 3), rotated_spec(8, 8)],
        ids=["imbalanced2d", "balanced2d", "eye-widths", "widths", "d=1", "d=3", "d=8"],
    )
    def test_per_point_pass_gives_the_shared_bits(self, spec):
        """`evaluate(X, sigma, [ids])` evaluates each point's own entries
        only.  Its logp and denoise equal, bit for bit with sign bits: the
        per-point item of the shared pass, `[ids, None]`; `gmm_eval` on each
        class's own components; and where every Q is I, the rotating path."""
        rotating = copy.copy(spec)
        rotating._eye = np.zeros_like(spec._eye)
        cfg = ExperimentConfig()
        sigmas = make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max).sigmas
        assert len(sigmas) == 65 and sigmas[-1] == 0.0
        rng = np.random.default_rng(spec.dim)
        for n in (1, 37, 1024):
            X = rng.normal(size=(n, spec.dim)) * 3.0
            pick = rng.random(n)
            X[pick < 0.1, 0], X[pick > 0.9, 0] = 0.0, -0.0
            X[0, 0] = -0.0
            X[-1] = spec.means[-1]  # exactly at a mean: quad 0 at sigma = 0
            ids = rng.choice(np.array(spec.class_ids), size=n)
            scratches = {}, {}, {}
            for sigma in sigmas:
                logp, resp, denoise, quad = spec.evaluate(X, sigma, [ids], scratches[0])[0]
                assert resp is None and quad is None
                shared = spec.evaluate(X, sigma, [ids, None], scratches[1])[0]
                assert (logp.tobytes(), denoise.tobytes()) == (shared[0].tobytes(), shared[2].tobytes())
                if spec._eye.all():
                    rotated = rotating.evaluate(X, sigma, [ids], scratches[2])[0]
                    assert (logp.tobytes(), denoise.tobytes()) == (rotated[0].tobytes(), rotated[2].tobytes())
                for c in spec.class_ids:
                    rows = ids == c
                    want = gmm_eval(X[rows], *mixture_arrays(spec, c), sigma**2)
                    assert logp[rows].tobytes() == want[0].tobytes()
                    if spec.dim > 1:
                        assert denoise[rows].tobytes() == want[3].tobytes()
                    else:  # the oracle's d = 1 einsum is a dot product
                        np.testing.assert_allclose(denoise[rows], want[3], rtol=1e-14, atol=1e-15)


def mixed_eye_2d():
    """Class 1 one isotropic component (Q = I), class 2 one isotropic and
    one rotated."""
    rot = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
    return GmmSpec(
        {
            1: [GmmComponent(np.array([2.0, 0.0]), 0.5 * np.eye(2), 1.0, 2.6)],
            2: [
                GmmComponent(np.array([-2.0, 0.0]), 0.5 * np.eye(2), 0.6, 2.6),
                GmmComponent(np.array([0.0, 2.0]), rot @ np.diag([0.9, 0.2]) @ rot.T, 0.4, 1.4),
            ],
        },
        {1: 0.5, 2: 0.5},
    )


class TestEvaluateWork:
    """What `evaluate` hands `gmm_terms`: when every item is per-point, each
    width group's own entries at its own points; otherwise one pass over the
    distinct entries the items need.  A pass rotates (twice) only when one
    of its entries' Q is not exactly I."""

    N = 1024

    def passes(self, monkeypatch, spec, mixtures):
        """Each `gmm_terms` pass of one evaluate call, as (quad shape,
        `_rotate` calls), the same with and without a plan in scratch."""
        terms, rotate = gmm.gmm_terms, gmm._rotate
        seen = []

        def counted_terms(*args):
            seen.append([None, 0])
            got = terms(*args)
            seen[-1][0] = got[-2].shape  # quad
            return got

        def counted_rotate(*args):
            seen[-1][1] += 1
            return rotate(*args)

        monkeypatch.setattr(gmm, "gmm_terms", counted_terms)
        monkeypatch.setattr(gmm, "_rotate", counted_rotate)
        X = np.random.default_rng(9).normal(size=(self.N, spec.dim)) * 3.0
        got, plans = [], {}
        for scratch in (None, plans, plans):  # the last call reuses the second's plan
            seen.clear()
            spec.evaluate(X, 0.7, mixtures, scratch)
            got.append([tuple(p) for p in seen])
        assert got[0] == got[1] == got[2]
        return got[0]

    def ids(self, spec):
        return np.random.default_rng(10).choice(np.array(spec.class_ids), size=self.N)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_conditional_only_evaluates_each_points_own_entries(self, monkeypatch, name):
        spec = preset(name)
        width = len(spec.mixture(1)[0])  # 2 on imbalanced2d, of 9 entries
        assert self.passes(monkeypatch, spec, [self.ids(spec)]) == [((width, self.N), 0)]
        ids = self.ids(spec)
        assert self.passes(monkeypatch, spec, [ids, ids[::-1].copy()]) == [((width, self.N), 0)] * 2

    def test_each_width_group_is_its_own_pass(self, monkeypatch):
        spec = three_widths_2d()
        ids = self.ids(spec)
        want = [((k, int((ids == k).sum())), 2) for k in (1, 2, 3)]
        assert self.passes(monkeypatch, spec, [ids]) == want
        # a pass rotates only when one of its entries' Q is not I
        spec = mixed_eye_2d()
        ids = self.ids(spec)
        want = [((1, int((ids == 1).sum())), 0), ((2, int((ids == 2).sum())), 2)]
        assert self.passes(monkeypatch, spec, [ids]) == want

    def test_a_class_id_or_the_marginal_keeps_one_shared_pass(self, monkeypatch):
        spec = preset("imbalanced2d")
        ids = self.ids(spec)
        assert len(spec.means) == 9
        for mixtures in ([ids, None], [None], [1, ids], [3, None, ids]):
            assert self.passes(monkeypatch, spec, mixtures) == [((9, self.N), 0)]
        assert self.passes(monkeypatch, spec, [1]) == [((2, self.N), 0)]
        spec = three_widths_2d()
        assert self.passes(monkeypatch, spec, [self.ids(spec), None]) == [((len(spec.means), self.N), 2)]


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = skewed_2d()
        p = tmp_path / "mix.json"
        save_spec(spec, p)
        back = load_spec(p)
        assert back.fingerprint() == spec.fingerprint()

    def test_fingerprint_changes_with_content(self, tmp_path):
        assert preset("balanced2d").fingerprint() != preset("imbalanced2d").fingerprint()

    def test_load_rejects_bad_weights(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"classes": {"1": [{"mean": [0.0], "cov": [[1.0]], "weight": 0.5,'
            ' "quality_tag": 2.0}]}, "class_priors": {"1": 1.0}}'
        )
        with pytest.raises(InvalidArgumentError):
            load_spec(p)

    def test_load_rejects_asymmetric_cov(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"classes": {"1": [{"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]],'
            ' "weight": 1.0, "quality_tag": 2.0}]}, "class_priors": {"1": 1.0}}'
        )
        with pytest.raises(InvalidArgumentError):
            load_spec(p)

    def test_load_rejects_missing_keys_and_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        with pytest.raises(InvalidArgumentError):
            load_spec(p)
        p.write_text("not json")
        with pytest.raises(InvalidArgumentError):
            load_spec(p)


class TestSpecValidation:
    def test_class_id_zero_reserved(self):
        comp = GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.0)
        with pytest.raises(InvalidArgumentError):
            GmmSpec({0: [comp]}, {0: 1.0})

    def test_class_id_must_fit_the_record(self, tmp_path):
        # records store class ids as i4, and a bool is no class id
        comp = GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.0)
        for cid in (2**31, True):
            with pytest.raises(InvalidArgumentError):
                GmmSpec({cid: [comp]}, {cid: 1.0})
        # so a dataset file naming class 2**31 fails as it loads
        p = tmp_path / "big.json"
        p.write_text(
            '{"classes": {"2147483648": [{"mean": [0.0], "cov": [[1.0]], "weight": 1.0,'
            ' "quality_tag": 2.0}]}, "class_priors": {"2147483648": 1.0}}'
        )
        with pytest.raises(InvalidArgumentError, match="2147483648"):
            load_spec(p)

    def test_priors_must_sum_to_one(self):
        comp = GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.0)
        with pytest.raises(InvalidArgumentError):
            GmmSpec({1: [comp], 2: [comp]}, {1: 0.5, 2: 0.6})

    def test_dimension_mismatch_rejected(self):
        c1 = GmmComponent(np.zeros(1), np.eye(1), 1.0, 2.0)
        c2 = GmmComponent(np.zeros(2), np.eye(2), 1.0, 2.0)
        with pytest.raises(InvalidArgumentError):
            GmmSpec({1: [c1], 2: [c2]}, {1: 0.5, 2: 0.5})

    def test_non_spd_cov_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GmmComponent(np.zeros(2), np.diag([1.0, 0.0]), 1.0, 2.0)

    def test_component_arrays_are_frozen_copies(self, tmp_path):
        """A spec's fingerprint and file name the mixture it samples: no write
        through a component, or through the arrays it was made from, moves
        them apart."""
        spec = preset("imbalanced2d")
        comp = spec.classes[1][0]
        fingerprint, x = spec.fingerprint(), np.array([[0.3, -0.2]])
        denoise = spec.evaluate(x, 0.5, [np.array([1])])[0][2]
        for arr in (comp.mean, comp.cov):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        mean, cov = np.zeros(2), np.eye(2)
        own = GmmComponent(mean, cov, 1.0, 2.0)
        mean[0], cov[1, 1] = 99.0, 5.0
        assert own.mean[0] == 0.0 and own.cov[1, 1] == 1.0
        assert spec.fingerprint() == fingerprint
        save_spec(spec, tmp_path / "spec.json")
        assert load_spec(tmp_path / "spec.json").fingerprint() == fingerprint
        assert spec.evaluate(x, 0.5, [np.array([1])])[0][2].tobytes() == denoise.tobytes()


class TestErrors:
    def test_unknown_class(self):
        with pytest.raises(NotFoundError):
            noised_log_density(two_mode_1d(), np.array([0.0]), 1.0, 9)

    def test_negative_sigma(self):
        with pytest.raises(InvalidArgumentError):
            noised_log_density(two_mode_1d(), np.array([0.0]), -1.0, 1)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            noised_log_density(two_mode_1d(), np.zeros(2), 1.0, 1)

    def test_non_finite_point(self):
        with pytest.raises(InvalidArgumentError):
            noised_log_density(two_mode_1d(), np.array([math.nan]), 1.0, 1)

    def test_degenerate_point_for_score(self):
        with pytest.raises(DegeneratePointError):
            analytic_score(two_mode_1d(), np.array([1e200]), 1.0, 1)
        with pytest.raises(DegeneratePointError):
            ideal_denoiser(two_mode_1d(), np.array([1e200]), 1.0, 1)
