"""Metrics checked against independent brute-force oracles.

Frechet distance is compared with a scipy.linalg.sqrtm route, precision and
recall with an O(n^2) pure-python pass, and the histogram KL against hand
constructions with known divergence.
"""

import math
import sys

import numpy as np
import pytest
from scipy import linalg

from famelab.errors import InvalidArgumentError, ScorerFailedError
from famelab.gmm import exact_sampler, preset
from famelab.metrics import (
    ComponentTagScorer,
    ExternalScorer,
    LogDensityScorer,
    assign_modes,
    bin_masses,
    class_report_csv,
    evaluate,
    frechet_distance,
    frechet_with_flag,
    histogram_kl,
    make_scorer,
    mode_stats,
    precision_recall,
    render_report,
    tier_for,
)
from famelab.schedule import Rng
from tests.test_gmm import two_mode_1d


def sqrtm_frechet_oracle(a, b):
    """Independent route: covariance square root via scipy.linalg.sqrtm."""
    mu_a, mu_b = a.mean(0), b.mean(0)
    ca = np.atleast_2d(np.cov(a, rowvar=False, ddof=1))
    cb = np.atleast_2d(np.cov(b, rowvar=False, ddof=1))
    s = linalg.sqrtm(ca @ cb)
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(ca) + np.trace(cb) - 2 * np.trace(s.real))


class TestFrechet:
    def test_identical_sets_are_zero(self):
        x = np.random.default_rng(0).normal(size=(256, 3))
        assert abs(frechet_distance(x, x)) < 1e-8

    def test_matches_sqrtm_oracle(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 5):
            for _ in range(5):
                a = rng.normal(size=(300, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
                b = rng.normal(size=(300, d)) @ rng.normal(size=(d, d))
                got = frechet_distance(a, b)
                np.testing.assert_allclose(got, sqrtm_frechet_oracle(a, b), rtol=1e-8, atol=1e-9)

    def test_1d_closed_form(self):
        """In 1-D the distance is (mu_a - mu_b)^2 + (s_a - s_b)^2."""
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, (500, 1))
        b = rng.normal(2.0, 3.0, (500, 1))
        expected = (a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2
        np.testing.assert_allclose(frechet_distance(a, b), expected, rtol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(200, 4)) * [1, 2, 0.5, 3]
        b = rng.normal(size=(220, 4)) + 1.0
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-9

    def test_collapsed_set_regularized_with_flag(self):
        a = np.zeros((64, 2))
        b = np.random.default_rng(4).normal(size=(64, 2))
        v, flagged = frechet_with_flag(a, b)
        assert flagged
        assert np.isfinite(v) and v > 0

    def test_healthy_sets_not_flagged(self):
        rng = np.random.default_rng(5)
        _, flagged = frechet_with_flag(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert not flagged

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            frechet_distance(np.zeros((3, 3)), np.zeros((10, 3)))


def precision_recall_oracle(gen, real, k):
    """Brute force: sorted squared distances, python loops."""

    def sq(u, v):
        return sum((a - b) ** 2 for a, b in zip(u, v))

    def kth_radius(pts, i):
        d = sorted(sq(pts[i], pts[j]) for j in range(len(pts)) if j != i)
        return d[k - 1]

    r_real = [kth_radius(real, j) for j in range(len(real))]
    r_gen = [kth_radius(gen, i) for i in range(len(gen))]
    prec = sum(
        any(sq(g, real[j]) <= r_real[j] for j in range(len(real))) for g in gen
    ) / len(gen)
    rec = sum(
        any(sq(r, gen[i]) <= r_gen[i] for i in range(len(gen))) for r in real
    ) / len(real)
    return prec, rec


class TestPrecisionRecall:
    def test_exact_match_with_bruteforce(self):
        """The fast path must agree with the O(n^2) oracle exactly, not
        approximately, on sets up to 512 points."""
        rng = np.random.default_rng(10)
        for n, m, k, d in ((32, 48, 1, 2), (100, 80, 3, 3), (512, 256, 5, 2)):
            gen = rng.normal(size=(n, d))
            real = rng.normal(size=(m, d)) + 0.5
            got = precision_recall(gen, real, k=k)
            want = precision_recall_oracle(gen.tolist(), real.tolist(), k)
            assert got == want

    def test_exact_match_with_duplicates(self):
        """Duplicated points create distance ties; results must still match."""
        rng = np.random.default_rng(11)
        base = rng.integers(0, 3, size=(60, 2)).astype(float)
        gen = np.vstack([base, base[:20]])
        real = rng.integers(0, 3, size=(70, 2)).astype(float)
        got = precision_recall(gen, real, k=2)
        want = precision_recall_oracle(gen.tolist(), real.tolist(), 2)
        assert got == want

    def test_identical_sets(self):
        x = np.random.default_rng(12).normal(size=(64, 2))
        assert precision_recall(x, x, k=3) == (1.0, 1.0)

    def test_disjoint_far_sets(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2)) + 1000.0
        assert precision_recall(a, b, k=3) == (0.0, 0.0)

    def test_partial_coverage(self):
        """Generated points on half the real manifold: precision high,
        recall about a half."""
        rng = np.random.default_rng(14)
        real = np.concatenate([rng.uniform(0, 1, (100, 1)), rng.uniform(5, 6, (100, 1))])
        gen = rng.uniform(0.05, 0.95, (100, 1))
        prec, rec = precision_recall(gen, real, k=3)
        assert prec > 0.9
        assert 0.3 < rec < 0.7

    def test_validation(self):
        x = np.zeros((10, 2))
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, x, k=0)
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, x, k=10)
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, np.zeros((10, 3)), k=2)


class TestHistogramKl:
    def test_bin_masses_sum_to_one(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        q = bin_masses(density, np.linspace(-3, 3, 65))
        assert q.sum() == pytest.approx(1.0, abs=1e-6)

    def test_self_consistency_small_kl(self):
        """Samples drawn from the density itself should have tiny divergence."""
        spec = two_mode_1d()
        from famelab.gmm import projected_density_1d

        density = projected_density_1d(spec, np.array([1.0]), 1)
        x = exact_sampler(spec, Rng(0), 1, 50_000)[:, 0]
        kl = histogram_kl(x, density, bins=64, range_=(-6.0, 8.0))
        assert 0 <= kl < 0.01

    def test_point_mass_against_uniform(self):
        """All samples in one bin vs a uniform density on (0, 1):
        KL = log(bins)."""
        x = np.full(1000, 0.5078125)  # interior of one of 64 bins on (0, 1)
        uniform = lambda t: 1.0 if 0.0 <= t <= 1.0 else 0.0
        kl = histogram_kl(x, uniform, bins=64, range_=(0.0, 1.0))
        assert kl == pytest.approx(math.log(64), rel=1e-3)

    def test_projection_required_for_2d(self):
        with pytest.raises(InvalidArgumentError):
            histogram_kl(np.zeros((10, 2)), lambda t: 1.0)

    def test_projected_path(self):
        spec = preset("balanced2d")
        from famelab.gmm import projected_density_1d

        u = np.array([1.0, 0.0])
        x = exact_sampler(spec, Rng(1), None, 40_000)
        kl = histogram_kl(
            x, projected_density_1d(spec, u, None), bins=64, range_=(-7.0, 7.0), projection=u
        )
        assert 0 <= kl < 0.01

    def test_degenerate_range(self):
        with pytest.raises(InvalidArgumentError):
            histogram_kl(np.ones(100), lambda t: 1.0)


class TestScorers:
    def test_component_tag_at_mode_centers(self):
        spec = preset("imbalanced2d")
        scorer = ComponentTagScorer(spec)
        good_center = spec.components(1)[0].mean
        np.testing.assert_allclose(scorer(good_center[None], 1), [2.6], atol=1e-6)
        np.testing.assert_allclose(scorer(np.zeros((1, 2)), 1), [1.4], atol=1e-3)

    def test_component_tag_blend_hand_value(self):
        spec = two_mode_1d()
        x = np.array([[0.4]])
        l1 = 0.7 * math.exp(-0.5 * 2.4**2 / 0.25) / math.sqrt(2 * math.pi * 0.25)
        l2 = 0.3 * math.exp(-0.5 * 2.6**2) / math.sqrt(2 * math.pi)
        want = (l1 * 2.6 + l2 * 1.4) / (l1 + l2)
        np.testing.assert_allclose(ComponentTagScorer(spec)(x, 1), [want], rtol=1e-10)

    def test_log_density_scorer(self):
        spec = two_mode_1d()
        from famelab.gmm import noised_log_density

        x = np.array([[0.3], [-2.0]])
        np.testing.assert_array_equal(
            LogDensityScorer(spec)(x, 1), noised_log_density(spec, x, 0.0, 1)
        )

    def test_external_scorer_round_trip(self):
        script = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(sum(float(v) for v in line.split()))\n"
        )
        scorer = ExternalScorer([sys.executable, "-c", script])
        x = np.array([[1.0, 2.5], [-3.0, 0.5]])
        np.testing.assert_allclose(scorer(x), [3.5, -2.5], atol=1e-12)

    def test_external_scorer_failure_modes(self):
        x = np.ones((3, 2))
        with pytest.raises(ScorerFailedError):
            ExternalScorer([sys.executable, "-c", "import sys; sys.exit(2)"])(x)
        with pytest.raises(ScorerFailedError):
            ExternalScorer([sys.executable, "-c", "print('1.0')"])(x)
        with pytest.raises(ScorerFailedError):
            ExternalScorer(
                [sys.executable, "-c", "print('a'); print('b'); print('c')"]
            )(x)
        with pytest.raises(ScorerFailedError):
            ExternalScorer(["/nonexistent/binary"])(x)

    def test_make_scorer(self):
        spec = two_mode_1d()
        assert isinstance(make_scorer(spec, "component-tag"), ComponentTagScorer)
        assert isinstance(make_scorer(spec, "log-density"), LogDensityScorer)
        ext = make_scorer(spec, "external:python3 -c pass")
        assert isinstance(ext, ExternalScorer)
        with pytest.raises(InvalidArgumentError):
            make_scorer(spec, "fid")


class TestModeAssignment:
    def test_centers_assigned_to_own_component(self):
        spec = preset("imbalanced2d")
        good = spec.components(3)[0].mean
        x = np.vstack([good, np.zeros(2)])
        np.testing.assert_array_equal(assign_modes(spec, x, 3), [0, 1])

    def test_outlier_cutoff(self):
        """Single unit-variance component: 3.9 sigma is inside, 4.1 outside."""
        from famelab.gmm import GmmComponent, GmmSpec

        spec = GmmSpec(
            {1: [GmmComponent(np.zeros(2), np.eye(2), 1.0, 2.6)]}, {1: 1.0}
        )
        x = np.array([[3.9, 0.0], [4.1, 0.0]])
        np.testing.assert_array_equal(assign_modes(spec, x, 1), [0, -1])

    def test_mode_stats_fractions(self):
        spec = preset("imbalanced2d")
        good = spec.components(2)[0].mean
        x = np.vstack([np.tile(good, (6, 1)), np.zeros((3, 2)), [[40.0, 40.0]]])
        ms = mode_stats(spec, x, 2)
        assert ms.n == 10
        assert ms.bad_fraction == pytest.approx(0.3)
        assert ms.outlier_fraction == pytest.approx(0.1)


class TestEvaluate:
    def make_sets(self, n=256):
        spec = preset("imbalanced2d")
        samples = {c: exact_sampler(spec, Rng(c), c, n) for c in spec.class_ids}
        reference = {c: exact_sampler(spec, Rng(100 + c), c, n) for c in spec.class_ids}
        return spec, samples, reference

    def test_full_report_on_matched_sets(self):
        spec, samples, reference = self.make_sets()
        report = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        assert report.frechet < 0.05
        assert not report.frechet_regularized
        assert report.precision > 0.85 and report.recall > 0.85
        assert len(report.class_reports) == 8
        # 90/10 blend of tags 2.6 / 1.4
        assert report.mean_score == pytest.approx(2.48, abs=0.06)
        assert 0.04 < report.bad_mode_fraction < 0.16
        assert report.outlier_fraction < 0.02
        for c in report.class_reports:
            assert c.n == 256
            assert c.tier in ("low", "middle", "top")
        assert set(report.per_class_frechet) == set(spec.class_ids)

    def test_deterministic(self):
        spec, samples, reference = self.make_sets(128)
        a = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        b = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        assert a == b

    def test_key_mismatch_rejected(self):
        spec, samples, reference = self.make_sets(64)
        del reference[3]
        with pytest.raises(InvalidArgumentError):
            evaluate(samples, reference, ComponentTagScorer(spec))

    def test_tier_bands(self):
        assert tier_for(1.99) == "low"
        assert tier_for(2.0) == "middle"
        assert tier_for(2.3) == "middle"
        assert tier_for(2.5) == "middle"
        assert tier_for(2.51) == "top"

    def test_csv_layout(self):
        spec, samples, reference = self.make_sets(64)
        report = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        csv = class_report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "class,n,mean_score,p10,p50,p90,tier"
        assert len(lines) == 1 + 8 + 1
        assert lines[-1].startswith("all,512,")
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "64"
        assert first[6] in ("low", "middle", "top")
        assert class_report_csv(report) == csv

    def test_render_report_mentions_key_numbers(self):
        spec, samples, reference = self.make_sets(64)
        report = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        text = render_report(report)
        assert "mean quality score" in text
        assert "bad-mode fraction" in text

    def test_report_to_dict_round_trips_through_json(self):
        import json

        spec, samples, reference = self.make_sets(64)
        report = evaluate(samples, reference, ComponentTagScorer(spec), spec=spec)
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["mean_score"] == report.mean_score
