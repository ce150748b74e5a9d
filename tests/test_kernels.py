"""The numeric kernels against their direct einsum formulas.

The oracle below is the mixture kernel's earliest implementation,
three-operand einsum contractions; `tests.oracles.gmm_eval` is its row-major
rewrite, (n, K) arrays reduced along rows, which the package kernel replaced.
Random mixtures must agree to rounding; the mixtures the reference run
evaluates must agree exactly, which is what keeps sampled trajectories and
pools byte-stable across kernel rewrites.

The package kernel is component-major: `gmm_terms` gives quad (K, n) and pm
(d, K, n), and every reduction over components is an explicit elementwise
sequence, in the order numpy sums an (n, K) row (`_sum_components`) and
einsum forms the posterior mean (at d >= 2); only max uses an axis reduce.  Those orders
are pinned here against numpy itself, so a numpy that changes them fails by
name.  `GmmSpec.evaluate`, the package's one caller of the kernel, must give
the bits of the row-major kernel on that mixture's own components, and hand
its scalar items' resp and quad back C-ordered (n, K).
"""

import math

import numpy as np

from famelab.config import ExperimentConfig
from famelab.gmm import _eval, _planes, _sum_components, gmm_reduce, gmm_terms, preset, responsibilities
from famelab.metrics import ComponentTagScorer
from famelab.schedule import make_schedule
from tests.oracles import _gmm_terms_rows, gmm_eval, mixture_arrays

LOG_2PI = math.log(2.0 * math.pi)


def gmm_eval_oracle(X, means, qmats, lams, logw, sig2):
    n, d = X.shape
    diff = X[:, None, :] - means[None, :, :]
    w = np.einsum("nkb,kba->nka", diff, qmats)
    den = lams[None, :, :] + sig2
    quad = np.einsum("nka,nka->nk", w / den, w)
    logdet = np.log(lams + sig2).sum(axis=1)
    logcomp = logw[None, :] - 0.5 * (d * LOG_2PI + logdet)[None, :] - 0.5 * quad

    m = logcomp.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logcomp - safe[:, None])
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = safe + np.log(s)
    resp = e / np.maximum(s, 1e-300)[:, None]

    sd = w / den
    score = -np.einsum("nk,kab,nkb->na", resp, qmats, sd)
    pm = means[None, :, :] + np.einsum("kab,nkb->nka", qmats, sd * lams[None, :, :])
    denoise = np.einsum("nk,nka->na", resp, pm)
    return logp, resp, score, denoise


def random_mixture(rng, n, d, K):
    X = rng.standard_normal((n, d)) * 3.0
    means = rng.standard_normal((K, d)) * 2.0
    lams = np.empty((K, d))
    qmats = np.empty((K, d, d))
    for k in range(K):
        a = rng.standard_normal((d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        lam, q = np.linalg.eigh(cov)
        lams[k] = lam
        qmats[k] = q
    w = rng.random(K) + 0.1
    logw = np.log(w / w.sum())
    return X, means, qmats, lams, logw


def table_terms(X, means, qmats, lams, sig2):
    """`gmm_terms` over a whole component table, shared by every point, with
    each entry's log determinant: (logdet, quad, pm)."""
    entries = np.arange(len(means))[:, None]
    quad, pm = gmm_terms(X, _planes(means, entries), _planes(qmats, entries), _planes(lams, entries), sig2)
    return np.log(lams + sig2).sum(axis=1), quad, pm


def reference_sigmas():
    cfg = ExperimentConfig()
    sched = make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max)
    return [float(s) for s in sched.sigmas]


class TestGmmEval:
    def test_matches_oracle_over_random_mixtures(self):
        for trial in range(40):
            rng = np.random.default_rng(4000 + trial)
            X, means, qmats, lams, logw = random_mixture(
                rng,
                n=int(rng.integers(1, 30)),
                d=int(rng.integers(1, 5)),
                K=int(rng.integers(1, 20)),
            )
            sig2 = 0.0 if trial % 4 == 0 else float(rng.random() * 4.0)
            ref = gmm_eval_oracle(X, means, qmats, lams, logw, sig2)
            got = gmm_eval(X, means, qmats, lams, logw, sig2)
            for r, g in zip(ref, got):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)

    def test_matches_oracle_at_zero_noise(self):
        rng = np.random.default_rng(77)
        X, means, qmats, lams, logw = random_mixture(rng, n=40, d=2, K=3)
        ref = gmm_eval_oracle(X, means, qmats, lams, logw, 0.0)
        got = gmm_eval(X, means, qmats, lams, logw, 0.0)
        for r, g in zip(ref, got):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)

    def test_underflow_point_gives_neg_inf(self):
        rng = np.random.default_rng(3)
        _, means, qmats, lams, logw = random_mixture(rng, n=1, d=2, K=2)
        X = np.full((1, 2), 1e200)
        logp, resp, score, denoise = gmm_eval(X, means, qmats, lams, logw, 1.0)
        assert logp[0] == -np.inf
        np.testing.assert_array_equal(resp, 0.0)
        np.testing.assert_array_equal(score, 0.0)
        np.testing.assert_array_equal(denoise, 0.0)

    def test_exact_on_reference_packs(self):
        """Every mixture of imbalanced2d (K=2 per class, K=16 marginal) at every
        noise level of the reference schedule: identical to the oracle."""
        spec = preset("imbalanced2d")
        rng = np.random.default_rng(11)
        for sigma in reference_sigmas():
            X = rng.standard_normal((64, 2)) * (2.0 + sigma)
            for class_id in [None, *sorted(spec.classes)]:
                args = (X, *mixture_arrays(spec, class_id), sigma**2)
                for r, g in zip(gmm_eval_oracle(*args), gmm_eval(*args)):
                    np.testing.assert_array_equal(g, r)

    def test_rows_independent_of_batch(self):
        """Each output row equals that row's one-row evaluation, bit for bit."""
        rng = np.random.default_rng(12)
        X3, *mix3 = random_mixture(rng, n=9, d=3, K=5)
        cases = [
            (rng.standard_normal((40, 2)) * 3.0, *mixture_arrays(preset("imbalanced2d"))),
            (X3, *mix3),
        ]
        for X, *mix in cases:
            batch = gmm_eval(X, *mix, 0.49)
            for i in range(len(X)):
                single = gmm_eval(X[i : i + 1], *mix, 0.49)
                for b, s in zip(batch, single):
                    np.testing.assert_array_equal(b[i], s[0])

    def test_package_rows_independent_of_batch(self):
        """The same for `GmmSpec.evaluate` and for the kernel at K >= 8,
        where a one-point (K, 1) sum over axis 0 would be added pairwise."""
        rng = np.random.default_rng(19)
        spec = preset("imbalanced2d")
        X = rng.standard_normal((40, 2)) * 3.0
        cls = rng.choice(np.array(spec.class_ids), size=len(X))
        batch = spec.evaluate(X, 0.7, [None, 1, cls])
        X12, means, qmats, lams, logw = random_mixture(rng, n=30, d=3, K=12)
        logdet, quad, pm = table_terms(X12, means, qmats, lams, 0.49)
        const = (logw - 0.5 * (3 * LOG_2PI + logdet))[:, None]
        kernel = gmm_reduce(const, quad, pm)
        for i in range(len(X)):
            single = spec.evaluate(X[i : i + 1], 0.7, [None, 1, cls[i : i + 1]])
            for b, s in zip(batch, single):
                np.testing.assert_array_equal(b[0][i], s[0][0])
                np.testing.assert_array_equal(b[2][i], s[2][0])
        for i in range(len(X12)):
            logp, resp, denoise = gmm_reduce(const, quad[:, i : i + 1], pm[:, :, i : i + 1])
            np.testing.assert_array_equal(kernel[0][i], logp[0])
            np.testing.assert_array_equal(kernel[1][:, i], resp[:, 0])
            np.testing.assert_array_equal(kernel[2][i], denoise[0])


class TestSplitKernel:
    """`GmmSpec.evaluate` runs `gmm_terms` once over the table entries its
    mixtures need, then `gmm_reduce` over each mixture's rows of them: the
    bits the row-major kernel gives on that mixture's own components."""

    def test_table_columns_reduce_to_pack_results(self):
        spec = preset("imbalanced2d")
        ids = np.array(spec.class_ids)
        rng = np.random.default_rng(13)
        for sigma in reference_sigmas()[::7]:
            X = rng.standard_normal((300, 2)) * (2.0 + sigma)
            cls = rng.choice(ids, size=len(X))
            logdet, quad, pm = table_terms(X, spec.means, spec.qmats, spec.lams, sigma**2)
            mixtures = [None, *spec.class_ids]
            got = spec.evaluate(X, sigma, [*mixtures, cls])
            for class_id, (logp, resp, denoise, q) in zip(mixtures, got):
                cols, logw, _ = spec.mixture(class_id)
                want = gmm_eval(X, *mixture_arrays(spec, class_id), sigma**2)
                want_q = _gmm_terms_rows(X, *mixture_arrays(spec, class_id)[:3], sigma**2)[1]
                for g, ref in zip((logp, resp.T, denoise, q.T), (want[0], want[1], want[3], want_q)):
                    np.testing.assert_array_equal(g, ref)
                # quad[cols] is component-major: one C-ordered row per component
                assert quad[cols].shape == (len(cols), len(X))
                assert quad[cols].flags.c_contiguous
                const = (logw - 0.5 * (2 * LOG_2PI + logdet[cols]))[:, None]
                alt = gmm_reduce(const, quad[cols], pm[:, cols])
                for g, ref in zip(alt, (want[0], want[1].T, want[3])):
                    np.testing.assert_array_equal(g, ref)
            # one mixture per row: each row's own class's bits
            logp, resp, denoise, q = got[-1]
            assert resp is None and q is None
            for c in spec.class_ids:
                rows = cls == c
                want = gmm_eval(X[rows], *mixture_arrays(spec, c), sigma**2)
                np.testing.assert_array_equal(logp[rows], want[0])
                np.testing.assert_array_equal(denoise[rows], want[3])


def _bits(a):
    """The float64 bit patterns of a, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


class TestNumpyOrder:
    """The kernel's reductions over components repeat numpy's own orders
    elementwise across points.  These pin both orders against numpy."""

    def test_component_sum_is_numpy_row_sum(self):
        """`_sum_components` over (K, n) equals (n, K).sum(axis=1) bit for
        bit, zeros, subnormals and inf included."""
        rng = np.random.default_rng(14)
        tiny = np.finfo(np.float64).smallest_subnormal
        for K in range(1, 34):
            for n in (1, 5, 1024):
                e = rng.random((n, K)) * 2.0 ** rng.integers(-4, 5, size=(n, K))
                pick = rng.random((n, K))
                e[pick < 0.05] = 0.0
                e[(pick >= 0.05) & (pick < 0.1)] = -0.0
                e[(pick >= 0.1) & (pick < 0.15)] = tiny * rng.integers(1, 2**20)
                e[pick > 0.99] = np.inf
                e[0] = tiny * np.arange(1, K + 1)
                e[-1, :] = -0.0
                got = _sum_components(np.ascontiguousarray(e.T))
                np.testing.assert_array_equal(_bits(got), _bits(e.sum(axis=1)), err_msg=f"K={K} n={n}")

    def test_component_sum_past_pairwise_block(self):
        """Past 128 terms numpy splits the row sum in halves."""
        rng = np.random.default_rng(15)
        for K in (128, 129, 136, 300):
            e = rng.random((7, K)) * 2.0 ** rng.integers(-4, 5, size=(7, K))
            np.testing.assert_array_equal(_bits(_sum_components(e.T.copy())), _bits(e.sum(axis=1)))

    def test_posterior_mean_is_einsum(self):
        """`gmm_reduce` forms the posterior mean one component at a time,
        which is einsum's order for d >= 2.  At d = 1 einsum contracts the
        components in a vectorised dot product whose order no elementwise
        sequence repeats; there the two agree to rounding."""
        rng = np.random.default_rng(16)
        for d in (1, 2, 3, 5):
            for K in range(1, 34):
                for n in (1, 5, 1024):
                    const = rng.standard_normal((K, 1))
                    quad = rng.random((K, n)) * 4.0
                    pm = rng.standard_normal((d, K, n))
                    # an underflowed point: zero responsibilities, -0.0 terms
                    quad[:, -1], pm[:, :, -1] = np.inf, -1.0
                    _, resp, denoise = gmm_reduce(const, quad, pm)
                    want = np.einsum("nk,nka->na", resp.T.copy(), pm.transpose(2, 1, 0).copy())
                    if d == 1:
                        np.testing.assert_allclose(denoise, want, rtol=1e-14, atol=1e-15)
                    else:
                        np.testing.assert_array_equal(_bits(denoise), _bits(want), err_msg=f"d={d} K={K} n={n}")


class TestLayoutContract:
    """`evaluate` hands scalar items' resp and quad back component-major
    (K, n), as the kernel makes them; `_eval`, which `responsibilities`,
    `noised_log_density` and the metrics read, makes C-ordered (n, K)
    copies.  An F-ordered view (resp.T of the component-major array) has the
    same values, but BLAS reads it differently: `ComponentTagScorer`'s
    `r @ tags` then changes in the last bit."""

    def test_scalar_items_are_c_ordered(self):
        spec = preset("imbalanced2d")
        X = np.random.default_rng(17).standard_normal((50, 2)) * 3.0
        for class_id in (None, 1):
            K = len(spec.mixture(class_id)[0])
            r = responsibilities(spec, X, class_id)
            assert r.shape == (50, K) and r.flags.c_contiguous
            _, (_, resp, _, quad) = _eval(spec, X, 0.5, class_id)
            for a in (resp, quad):
                assert a.shape == (50, K) and a.flags.c_contiguous
            [(_, resp_km, _, quad_km)] = spec.evaluate(X, 0.5, [class_id])
            for a, b in ((resp_km, resp), (quad_km, quad)):
                assert a.shape == (K, 50) and a.flags.c_contiguous
                np.testing.assert_array_equal(a.T, b)

    def test_tag_scorer_matches_row_major_oracle(self):
        spec = preset("imbalanced2d")
        scorer = ComponentTagScorer(spec)
        X = np.random.default_rng(18).standard_normal((1000, 2)) * 4.0
        for class_id in (None, *spec.class_ids):
            want = gmm_eval(X, *mixture_arrays(spec, class_id), 0.0)[1] @ spec.mixture(class_id)[2]
            np.testing.assert_array_equal(scorer(X, class_id), want)
