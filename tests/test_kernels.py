"""The numeric kernels against their direct einsum formulas.

The oracle below is the mixture kernel's earlier implementation, three-operand
einsum contractions.  The kernel is checked as `gmm_terms` then `gmm_reduce`
on one mixture's own components (`tests.oracles.gmm_eval`).
Random mixtures must agree to rounding; the packs the reference run
evaluates must agree exactly, which is what keeps sampled trajectories and
pools byte-stable across kernel rewrites.  `GmmSpec.evaluate`, the package's
one caller of the two, must give the bits of that per-mixture composition.
"""

import math

import numpy as np

from famelab.config import ExperimentConfig
from famelab.gmm import gmm_reduce, gmm_terms, preset
from famelab.schedule import make_schedule
from tests.oracles import gmm_eval, pack_arrays

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
        """Every pack of imbalanced2d (K=2 per class, K=16 marginal) at every
        noise level of the reference schedule: identical to the oracle."""
        spec = preset("imbalanced2d")
        rng = np.random.default_rng(11)
        for sigma in reference_sigmas():
            X = rng.standard_normal((64, 2)) * (2.0 + sigma)
            for class_id in [None, *sorted(spec.classes)]:
                args = (X, *pack_arrays(spec, class_id), sigma**2)
                for r, g in zip(gmm_eval_oracle(*args), gmm_eval(*args)):
                    np.testing.assert_array_equal(g, r)

    def test_rows_independent_of_batch(self):
        """Each output row equals that row's one-row evaluation, bit for bit."""
        rng = np.random.default_rng(12)
        X3, *mix3 = random_mixture(rng, n=9, d=3, K=5)
        cases = [
            (rng.standard_normal((40, 2)) * 3.0, *pack_arrays(preset("imbalanced2d"))),
            (X3, *mix3),
        ]
        for X, *mix in cases:
            batch = gmm_eval(X, *mix, 0.49)
            for i in range(len(X)):
                single = gmm_eval(X[i : i + 1], *mix, 0.49)
                for b, s in zip(batch, single):
                    np.testing.assert_array_equal(b[i], s[0])


class TestSplitKernel:
    """`GmmSpec.evaluate` runs `gmm_terms` once over the table entries its
    mixtures need, then `gmm_reduce` over each mixture's columns: the bits
    the two kernels give on that mixture's own components."""

    def test_table_columns_reduce_to_pack_results(self):
        spec = preset("imbalanced2d")
        t = spec.table
        ids = np.array(spec.class_ids)
        rng = np.random.default_rng(13)
        for sigma in reference_sigmas()[::7]:
            X = rng.standard_normal((300, 2)) * (2.0 + sigma)
            cls = rng.choice(ids, size=len(X))
            logdet, quad, pm = gmm_terms(X, t.means, t.qmats, t.lams, sigma**2)
            mixtures = [None, *spec.class_ids]
            got = spec.evaluate(X, sigma, [*mixtures, cls])
            for class_id, (logp, resp, denoise, q) in zip(mixtures, got):
                p = spec.pack(class_id)
                want = gmm_eval(X, *pack_arrays(spec, class_id), sigma**2)
                for g, ref in zip((logp, resp, denoise), (want[0], want[1], want[3])):
                    np.testing.assert_array_equal(g, ref)
                np.testing.assert_array_equal(q, gmm_terms(X, *pack_arrays(spec, class_id)[:3], sigma**2)[1])
                # quad[:, cols] is column-major; the sums must not follow it
                assert not quad[:, p.cols].flags.c_contiguous or len(p.cols) == 1
                const = p.logw[None, :] - 0.5 * (2 * LOG_2PI + logdet[p.cols])[None, :]
                alt = gmm_reduce(const, quad[:, p.cols], pm[:, p.cols])
                for g, ref in zip(alt, (want[0], want[1], want[3])):
                    np.testing.assert_array_equal(g, ref)
            # one mixture per row: each row's own class's bits
            logp, resp, denoise, q = got[-1]
            assert resp is None and q is None
            for c in spec.class_ids:
                rows = cls == c
                want = gmm_eval(X[rows], *pack_arrays(spec, c), sigma**2)
                np.testing.assert_array_equal(logp[rows], want[0])
                np.testing.assert_array_equal(denoise[rows], want[3])
