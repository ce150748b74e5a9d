"""Metrics checked against independent brute-force oracles.

Frechet distance is compared with a scipy.linalg.sqrtm route, precision and
recall with an O(n^2) pure-python pass, and the histogram KL against hand
constructions with known divergence.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg

from famelab.errors import InvalidArgumentError, NotFoundError, ScorerFailedError
from famelab.gmm import _eval, exact_sampler, preset
from famelab.metrics import (
    KNN_BLOCK,
    KNN_K,
    KNN_MAX,
    OUTLIER_MAHALANOBIS,
    ComponentTagScorer,
    ExternalScorer,
    LogDensityScorer,
    ModeStats,
    _Grids,
    _References,
    assign_modes,
    class_report_csv,
    evaluate,
    frechet_distance,
    frechet_with_flag,
    make_scorer,
    mode_stats,
    precision_recall,
    render_report,
    tier_for,
)
from tests.oracles import assign_modes_two_pass, precision_recall_dense
from tests.test_gmm import projected_density_1d, two_mode_1d


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

    def test_prepared_real_set(self):
        """A real set's `_Grids`, prepared once, stands in for its points:
        the same results for every generated set, with the levels it builds
        kept between calls; a k it was not prepared for is refused."""
        rng = np.random.default_rng(17)
        real = rng.normal(size=(300, 2))
        prepared = _Grids(real, 3)
        for gen in (rng.normal(size=(200, 2)), rng.normal(size=(400, 2)) * 2.0 + 1.0):
            assert precision_recall(gen, prepared) == precision_recall(gen, real)
            assert prepared.levels
        with pytest.raises(InvalidArgumentError, match="k=3"):
            precision_recall(gen, prepared, k=2)
        # a set of k points or fewer is refused, not searched level after level
        with pytest.raises(InvalidArgumentError, match="more than k points"):
            _References({1: real[:2], 2: real[2:3]})

    def test_validation(self):
        x = np.zeros((10, 2))
        for k in (0, True, 2.0):
            with pytest.raises(InvalidArgumentError):
                precision_recall(x, x, k=k)
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, x, k=10)
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, np.zeros((10, 3)), k=2)
        bad = np.ones((10, 2))
        bad[3, 1] = np.nan
        with pytest.raises(InvalidArgumentError):
            precision_recall(bad, x, k=2)
        bad[3, 1] = np.inf
        with pytest.raises(InvalidArgumentError):
            precision_recall(x, bad, k=2)


class TestPrecisionRecallMatchesDense:
    """The grid search against the all-pairs matrices, compared with ==:
    the sets `evaluate` measures, ties, radii of zero and of everything, and
    dimensions on both sides of numpy's pairwise-summation block."""

    def test_pooled_mixture_samples_at_knn_max(self):
        spec = preset("imbalanced2d")
        gen = exact_sampler(spec, np.random.default_rng(20), n=KNN_MAX)
        real = exact_sampler(spec, np.random.default_rng(21), n=KNN_MAX)
        assert precision_recall(gen, real) == precision_recall_dense(gen, real, KNN_K)

    def test_duplicates_give_zero_radii(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=(40, 2))
        gen = np.repeat(base[:30], 5, axis=0)
        real = np.vstack([np.repeat(base[10:], 4, axis=0), rng.normal(size=(20, 2))])
        got = precision_recall(gen, real, k=3)
        assert got == precision_recall_dense(gen, real, 3)
        # every generated ball is a point: only the 20 shared points' copies count
        assert got[1] == 80 / 140

    def test_point_exactly_on_a_radius_is_inside(self):
        # the origin's ball has squared radius 25 and decides alone for the
        # first three generated points; the other two real balls are small
        real = np.array([[0.0, 0.0], [-5.0, 0.0], [0.0, -5.0]])
        gen = np.array([[3.0, 4.0], [3.0, np.nextafter(4.0, 5.0)], [4.0, 3.0], [-4.0, 3.0]])
        got = precision_recall(gen, real, k=1)
        assert got == precision_recall_dense(gen, real, 1)
        assert got[0] == 0.75

    def test_outlier_radius_covers_the_other_set(self):
        rng = np.random.default_rng(16)
        cluster = rng.normal(size=(60, 2)) * 0.1
        real = np.vstack([[[0.0, 0.0]], cluster[:30] + 100.0, cluster[30:] - 100.0])
        gen = rng.normal(size=(200, 2))
        got = precision_recall(gen, real, k=3)
        assert got == precision_recall_dense(gen, real, 3)
        assert got[0] == 1.0

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_random_sets(self, d):
        rng = np.random.default_rng(30 + d)
        gen = rng.normal(size=(400, d))
        real = rng.normal(size=(300, d)) * 1.2 + 0.2
        for k in (1, 3, 7):
            assert precision_recall(gen, real, k=k) == precision_recall_dense(gen, real, k)

    def test_d8_near_ties_among_permutations(self):
        """Permutations of one vector lie at the origin's distance up to
        rounding, which the tree, cdist and numpy's row sum each round their
        own way: the radii and the coverage both turn on last bits."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal(8)
            perms = np.array([q[rng.permutation(8)] for _ in range(60)])
            real = np.vstack([np.zeros(8), perms[:20]])
            gen = np.vstack([np.zeros(8), perms[20:]])
            for k in (1, 3):
                assert precision_recall(gen, real, k=k) == precision_recall_dense(gen, real, k)

    def test_d8_boundary_decided_by_sequential_sum(self):
        """A generated point whose coordinates permute the origin's nearest
        neighbour's: summed in cdist's order it lies outside the origin's
        ball, summed pairwise (numpy's row sum from d = 8) inside."""

        def seq(v):
            s = 0.0
            for t in v:
                s += t * t
            return s

        rng = np.random.default_rng(3)
        while True:
            q = rng.standard_normal(8)
            g = q[rng.permutation(8)]
            if (seq(g) <= seq(q)) != (float((g * g).sum()) <= float((q * q).sum())) and (
                seq(g - q) > 1.5 * seq(q)
            ):
                break
        far = rng.normal(size=(4, 8)) * 0.01 + 50.0
        real = np.vstack([np.zeros(8), q, far])
        gen = np.vstack([g, far[:2] + 0.5])
        got = precision_recall(gen, real, k=1)
        assert got == precision_recall_dense(gen, real, 1)
        assert got[0] == (0.5 if seq(g) <= seq(q) else 0.0)

    def test_points_on_cell_boundaries(self):
        """Each set's first-level reach is 1 (extent / (2 sqrt(n)): 8 / 8 and
        10 / 10), so every coordinate lies on a cell edge and the lattice
        distances 1, 2, 4 and 8 fall just outside the reach of a level."""
        real = np.array([(i, j) for i in (0, 1, 2, 8) for j in (0, 1, 2, 8)], dtype=float)
        gen = np.array([(i, j) for i in (0, 1, 2, 3, 10) for j in (0, 1, 2, 3, 10)], dtype=float)
        for k in (1, 2, 3, 5):
            assert precision_recall(gen, real, k=k) == precision_recall_dense(gen, real, k)
            assert precision_recall(real[:, :1], gen[:, :1], k=k) == precision_recall_dense(
                real[:, :1], gen[:, :1], k
            )

    def test_nearest_two_cells_away_just_beyond_the_reach(self):
        """The real set's first-level reach is again 1.  The point c at
        x = 3 - 1e-7 has its nearest neighbour p at 1 + 2e-7, beyond the cells
        the first level pairs c with, and the next, q, at 1 + 1e-4 within them:
        neither lies within that reach, so c's radius waits for the next
        level, where p is paired.  The generated point above c lies between
        the two radii."""
        c, p, q = 3.0 - 1e-7, 4.0 + 1e-7, 1.9999
        xs = [0.0, 8.0, c, p, q, *np.linspace(6.5, 7.5, 11)]
        real = np.array([(x, 0.0) for x in xs])
        gen = np.array([(c, 1.00005), (20.0, 20.0), (21.0, 20.0), (20.0, 21.0)])
        got = precision_recall(gen, real, k=1)
        assert got == precision_recall_dense(gen, real, 1)
        assert got[0] == 0.0


class TestPrecisionRecallBlocks:
    """The grids pair at most KNN_BLOCK centres per query, inside each level:
    the all-pairs result on both sides of a block edge, and one call's
    memory stays a block's size."""

    @pytest.mark.parametrize("n", [2 * KNN_BLOCK - 1, 2 * KNN_BLOCK + 1])
    def test_equals_dense_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        # six tight clumps: hundreds of points share each first-level cell
        clumps = rng.normal(size=(6, 2)) * 4.0
        real = clumps[rng.integers(0, 6, n)] + rng.normal(size=(n, 2)) * 1e-3
        gen = clumps[rng.integers(0, 6, n + 2)] + rng.normal(size=(n + 2, 2)) * 1e-3
        gen[:60] = rng.normal(size=(60, 2)) * 4.0
        # copies of a block's points in the blocks after it, within a set and across
        real[KNN_BLOCK + 5 :: 97] = real[: len(real[KNN_BLOCK + 5 :: 97])]
        gen[-3:] = gen[1:4]
        gen[KNN_BLOCK : KNN_BLOCK + 40] = real[:40]
        for k in (1, 3, 5):
            assert precision_recall(gen, real, k=k) == precision_recall_dense(gen, real, k)
            assert precision_recall(real, gen, k=k) == precision_recall_dense(real, gen, k)

    def test_peak_memory_stays_a_blocks_size(self):
        """Two 2,048-point sets: tracemalloc peak 3.4 MiB with every centre
        of a level paired at once, 1.9 MiB a block at a time."""
        spec = preset("imbalanced2d")
        gen = exact_sampler(spec, np.random.default_rng(24), n=KNN_MAX)
        real = exact_sampler(spec, np.random.default_rng(25), n=KNN_MAX)
        precision_recall(gen[:100], real[:100])
        tracemalloc.start()
        try:
            precision_recall(gen, real)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, peak


def _edge_set(kind, rng, n, d):
    """A point set of one of the shapes at the grid's edges."""
    x = rng.normal(size=(n, d))
    if kind == "duplicates":
        x = x[rng.integers(0, max(1, n // 4), n)]
    elif kind == "identical":
        x = np.repeat(x[:1], n, axis=0)
    elif kind == "constant-coordinate":
        x[:, rng.integers(0, d)] = 0.75
    elif kind == "tiny":
        x *= 1e-8
    elif kind == "huge":
        x *= 1e8
    elif kind == "minute":
        x *= 1e-170
    elif kind == "vast":
        x *= 1e160
    elif kind == "offset":
        x = 1e6 + 1e-3 * x
    elif kind == "outliers":
        x[rng.integers(0, n, 3)] = rng.normal(size=(3, d)) * 1e6
    return x


_EDGE_KINDS = (
    "normal", "duplicates", "identical", "constant-coordinate", "tiny", "huge", "minute",
    "vast", "offset", "outliers",
)


class TestPrecisionRecallGridEdges:
    # squared distances within the 1e160 sets overflow to inf, as cdist's do
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from([1, 2, 3, 8]),
        k=st.sampled_from([1, 2, 3, 5]),
        kinds=st.tuples(st.sampled_from(_EDGE_KINDS), st.sampled_from(_EDGE_KINDS)),
        sizes=st.tuples(st.integers(6, 60), st.integers(6, 60)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dense(self, d, k, kinds, sizes, seed):
        rng = np.random.default_rng(seed)
        gen, real = (_edge_set(kind, rng, n, d) for kind, n in zip(kinds, sizes))
        assert precision_recall(gen, real, k=k) == precision_recall_dense(gen, real, k)


def histogram_kl(
    samples,
    density,
    bins: int = 64,
    range_=None,
    projection=None,
    smoothing: float = 1e-12,
) -> float:
    """KL(sample histogram || bin-integrated analytic density).

    Multivariate samples are reduced with the given projection vector.  Bin
    masses come from adaptive quadrature of the density over each bin, with
    tail mass folded into the edge bins (samples are clipped the same way).
    Bins the density assigns zero mass get additive smoothing so the result
    stays finite.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 2:
        if projection is None:
            raise InvalidArgumentError("multivariate samples need a projection vector")
        x = x @ np.asarray(projection, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise InvalidArgumentError("samples must be a nonempty vector after projection")
    if bins < 2:
        raise InvalidArgumentError("need at least 2 bins")
    lo, hi = range_ if range_ is not None else (float(x.min()), float(x.max()))
    if not lo < hi:
        raise InvalidArgumentError(f"degenerate histogram range ({lo}, {hi})")
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(x, lo, hi), edges)
    p = counts / counts.sum()

    q = bin_masses(density, edges) + smoothing
    q = q / q.sum()
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def bin_masses(density, edges) -> np.ndarray:
    """Adaptive-quadrature mass of a 1-D density over each bin, with the two
    tails folded into the edge bins; sums to 1 for any proper density."""
    edges = np.asarray(edges, dtype=np.float64)
    q = np.empty(len(edges) - 1)
    for i in range(len(q)):
        q[i], _ = integrate.quad(density, edges[i], edges[i + 1], limit=200)
    q[0] += integrate.quad(density, -np.inf, edges[0], limit=200)[0]
    q[-1] += integrate.quad(density, edges[-1], np.inf, limit=200)[0]
    return q


class TestHistogramKl:
    def test_bin_masses_sum_to_one(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        q = bin_masses(density, np.linspace(-3, 3, 65))
        assert q.sum() == pytest.approx(1.0, abs=1e-6)

    def test_self_consistency_small_kl(self):
        """Samples drawn from the density itself should have tiny divergence."""
        spec = two_mode_1d()
        density = projected_density_1d(spec, np.array([1.0]), 1)
        x = exact_sampler(spec, np.random.default_rng(0), 1, 50_000)[:, 0]
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
        u = np.array([1.0, 0.0])
        x = exact_sampler(spec, np.random.default_rng(1), None, 40_000)
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
        good_center = spec.classes[1][0].mean
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
        # three scores on one line are one line, not three
        with pytest.raises(ScorerFailedError, match="1 values for 3 samples"):
            ExternalScorer([sys.executable, "-c", "print('1.0 1.0 1.0')"])(x)

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
        good = spec.classes[3][0].mean
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

    @pytest.mark.parametrize("name", ["balanced2d", "imbalanced2d"])
    def test_one_pass_matches_two_pass(self, name):
        """The single sigma = 0 evaluation assigns exactly as responsibilities
        plus a separate einsum Mahalanobis pass did, for every class and the
        marginal, on points scattered widely and on points within a few ulps
        of 4 deviations from each component."""
        spec = preset(name)
        rng = np.random.default_rng(31)
        near = []
        for e in range(len(spec.means)):
            ang = rng.uniform(0.0, 2.0 * np.pi, 400)
            u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            r = 4.0 * (1.0 + rng.integers(-4, 5, size=(400, 1)) * np.finfo(float).eps)
            near.append(spec.means[e] + (u * r * np.sqrt(spec.lams[e])) @ spec.qmats[e].T)
        near = np.concatenate(near)
        x = np.concatenate([rng.standard_normal((5000, 2)) * 4.0, near])
        for class_id in [None, *spec.class_ids]:
            got = assign_modes(spec, x, class_id)
            np.testing.assert_array_equal(got, assign_modes_two_pass(spec, x, class_id))
            at_cutoff = got[len(x) - len(near) :]
            assert (at_cutoff == -1).any() and (at_cutoff >= 0).any()

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 8000])
    def test_blocks_match_whole_set(self, n):
        """Blocks of MODE_BLOCK rows assign exactly as one `_eval` over the
        whole set, for every class and the marginal, an empty set included."""
        spec = preset("imbalanced2d")
        x = np.random.default_rng(32).standard_normal((n, 2)) * 4.0
        for class_id in [None, *spec.class_ids]:
            _, (_, r, _, m2) = _eval(spec, x, 0.0, class_id)
            want = np.where(m2.min(axis=1) > OUTLIER_MAHALANOBIS**2, -1, r.argmax(axis=1))
            got = assign_modes(spec, x, class_id)
            assert got.dtype == want.dtype and got.shape == (n,)
            np.testing.assert_array_equal(got, want)
        with pytest.raises(NotFoundError):
            assign_modes(spec, x, 99)

    def test_peak_memory_does_not_grow_with_the_set(self):
        spec = preset("imbalanced2d")
        x = exact_sampler(spec, np.random.default_rng(33), class_id=None, n=8000)
        tracemalloc.start()
        try:
            assign_modes(spec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak

    def test_mode_stats_fractions(self):
        spec = preset("imbalanced2d")
        good = spec.classes[2][0].mean
        x = np.vstack([np.tile(good, (6, 1)), np.zeros((3, 2)), [[40.0, 40.0]]])
        ms = mode_stats(spec, x, 2)
        assert (ms.n, ms.bad, ms.outliers) == (10, 3, 1)


class TestEvaluate:
    def make_sets(self, n=256):
        spec = preset("imbalanced2d")
        samples = {c: exact_sampler(spec, np.random.default_rng(c), c, n) for c in spec.class_ids}
        reference = {c: exact_sampler(spec, np.random.default_rng(100 + c), c, n) for c in spec.class_ids}
        scorer = ComponentTagScorer(spec)
        return spec, samples, reference, {c: scorer(x, c) for c, x in samples.items()}

    def test_full_report_on_matched_sets(self):
        spec, samples, reference, scores = self.make_sets()
        report = evaluate(samples, reference, scores, spec=spec)
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

    def test_pooled_mode_fractions_divide_integer_counts(self):
        """7 and 14 of two classes' 100 samples are 21/200 of the pool, in
        the bad mode and outside every component: rebuilding each count as
        (k/100)*100 would give 21.000000000000004/200."""
        spec = preset("imbalanced2d")
        rng = np.random.default_rng(34)
        samples, scores = {}, {}
        for c, bad, far in ((1, 7, 14), (2, 14, 7)):
            x = spec.classes[c][0].mean + 0.1 * rng.standard_normal((100, 2))
            x[:bad] = 0.1 * rng.standard_normal((bad, 2))  # the shared mode at the origin
            x[bad : bad + far] += 40.0
            samples[c], scores[c] = x, np.zeros(100)
        assert [mode_stats(spec, samples[c], c) for c in (1, 2)] == [ModeStats(100, 7, 14), ModeStats(100, 14, 7)]
        report = evaluate(samples, samples, scores, spec=spec)
        assert report.bad_mode_fraction == report.outlier_fraction == 21 / 200

    @pytest.mark.parametrize("n", [1, 2, 7, 256])
    def test_percentiles_in_one_call_equal_three(self, n):
        """evaluate takes a class's p10, p50 and p90 from one np.percentile
        call: the bits of three separate calls, with tied scores too."""
        rng = np.random.default_rng(n)
        scores = rng.choice([1.4, 2.0, 2.6], size=n)
        scores[rng.random(n) < 0.5] += rng.random()
        three = np.array([np.percentile(scores, q) for q in (10, 50, 90)])
        assert np.percentile(scores, (10, 50, 90)).tobytes() == three.tobytes()
        if n > KNN_K:
            spec = preset("imbalanced2d")
            x = exact_sampler(spec, rng, 1, n)
            [c] = evaluate({1: x}, {1: x}, {1: scores}, spec=spec).class_reports
            assert np.array([c.p10, c.p50, c.p90]).tobytes() == three.tobytes()

    def test_prepared_references_give_the_plain_report(self):
        """`_References` holds the k-NN state of the reference pool thinned
        to KNN_MAX; evaluate against it gives the plain dict's report."""
        spec, samples, reference, scores = self.make_sets(300)
        prepared = _References(reference)
        assert len(prepared.knn.points) == KNN_MAX
        assert evaluate(samples, prepared, scores, spec=spec) == evaluate(samples, reference, scores, spec=spec)

    def test_deterministic(self):
        spec, samples, reference, scores = self.make_sets(128)
        a = evaluate(samples, reference, scores, spec=spec)
        b = evaluate(samples, reference, scores, spec=spec)
        assert a == b

    def test_key_mismatch_rejected(self):
        spec, samples, reference, scores = self.make_sets(64)
        del reference[3]
        with pytest.raises(InvalidArgumentError):
            evaluate(samples, reference, scores, spec=spec)

    def test_scores_must_match_classes_and_samples(self):
        spec, samples, reference, scores = self.make_sets(64)
        bad_scores = (
            {c: v for c, v in scores.items() if c != 3},
            {**scores, 3: scores[3][:-1]},
            {**scores, 3: scores[3][:, None]},
            {**scores, 3: float(scores[3][0])},
        )
        for bad in bad_scores:
            with pytest.raises(InvalidArgumentError, match="score"):
                evaluate(samples, reference, bad, spec=spec)

    def test_tier_bands(self):
        assert tier_for(1.99) == "low"
        assert tier_for(2.0) == "middle"
        assert tier_for(2.3) == "middle"
        assert tier_for(2.5) == "middle"
        assert tier_for(2.51) == "top"

    def test_csv_layout(self):
        spec, samples, reference, scores = self.make_sets(64)
        report = evaluate(samples, reference, scores, spec=spec)
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
        spec, samples, reference, scores = self.make_sets(64)
        report = evaluate(samples, reference, scores, spec=spec)
        text = render_report(report)
        assert "mean quality score" in text
        assert "bad-mode fraction" in text

    def test_report_to_dict_round_trips_through_json(self):
        import json

        spec, samples, reference, scores = self.make_sets(64)
        report = evaluate(samples, reference, scores, spec=spec)
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["mean_score"] == report.mean_score
