"""Mixture oracles that evaluate each mixture from its own component arrays.

The package evaluates mixtures in one place, `GmmSpec.evaluate`, which runs
the kernel once over the distinct components several mixtures share and
gathers each mixture's columns.  The oracles here take the other route: they
hand one mixture's components (`spec.table.*[pack.cols]`, a shared
component repeated) straight to `gmm_terms` and `gmm_reduce`, and never call
`GmmSpec.evaluate`, so a test comparing the two compares two paths.  The
score, which the package no longer computes, is the responsibility-weighted
-Sigma_sigma^-1 (x - mu) of each component.  `assign_modes_two_pass` is the
earlier mode assignment: the responsibilities, then a second pass for the
einsum Mahalanobis distance.  `precision_recall_dense` is the earlier k-NN
precision/recall on full `cdist` matrices, which the package's KD-tree search
must match exactly.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from famelab.errors import DegeneratePointError, InvalidArgumentError
from famelab.gmm import check_points, gmm_reduce, gmm_terms

LOG_2PI = math.log(2.0 * math.pi)


def gmm_eval(X, means, qmats, lams, logw, sig2):
    """(logp, resp, score, denoise) of one mixture at sigma = sqrt(sig2)."""
    d = X.shape[1]
    logdet, quad, pm = gmm_terms(X, means, qmats, lams, sig2)
    const = logw[None, :] - 0.5 * (d * LOG_2PI + logdet)[None, :]
    logp, resp, denoise = gmm_reduce(const, quad, pm)
    w = np.einsum("nkb,kba->nka", X[:, None, :] - means[None, :, :], qmats)
    score = -np.einsum("nk,kab,nkb->na", resp, qmats, w / (lams[None, :, :] + sig2))
    return logp, resp, score, denoise


def pack_arrays(spec, class_id=None):
    """(means, qmats, lams, logw) of one class's mixture, or the marginal's."""
    p = spec.pack(class_id)
    t = spec.table
    return t.means[p.cols], t.qmats[p.cols], t.lams[p.cols], p.logw


def _eval(spec, x, sigma, class_id):
    single, X = check_points(spec, x, sigma)
    logp, _, score, denoise = gmm_eval(X, *pack_arrays(spec, class_id), float(sigma) ** 2)
    if not np.all(np.isfinite(logp)):
        raise DegeneratePointError("density underflowed to zero; undefined here")
    return single, score, denoise


def analytic_score(spec, x, sigma, class_id=None):
    """Gradient of the noised log density in x, same shape as x."""
    single, score, _ = _eval(spec, x, sigma, class_id)
    return score[0] if single else score


def ideal_denoiser(spec, x, sigma, class_id=None):
    """Posterior mean E[x0 | x] at noise level sigma > 0, from the
    responsibility-weighted per-component posterior means (not via the
    score identity, which tests check independently)."""
    if not (sigma > 0):
        raise InvalidArgumentError(f"denoiser needs sigma > 0, got {sigma}")
    single, _, denoise = _eval(spec, x, sigma, class_id)
    return denoise[0] if single else denoise


def mahalanobis_sq(spec, X, class_id=None):
    """Squared Mahalanobis distance of each point to each component, (n, K)."""
    means, qmats, lams, _ = pack_arrays(spec, class_id)
    w = np.einsum("nkb,kba->nka", X[:, None, :] - means[None, :, :], qmats)
    return np.einsum("nka,nka->nk", w / lams[None, :, :], w)


def assign_modes_two_pass(spec, samples, class_id=None, max_mahalanobis=4.0):
    """Argmax responsibility, or -1 past max_mahalanobis of every component."""
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    idx = gmm_eval(X, *pack_arrays(spec, class_id), 0.0)[1].argmax(axis=1)
    return np.where(mahalanobis_sq(spec, X, class_id).min(axis=1) > max_mahalanobis**2, -1, idx)


def precision_recall_dense(gen, real, k):
    """k-NN precision and recall from the three all-pairs squared-distance
    matrices: radii by the k-th order statistic of each row, self included."""
    gen, real = np.asarray(gen, dtype=np.float64), np.asarray(real, dtype=np.float64)
    radii_real = np.partition(cdist(real, real, "sqeuclidean"), k, axis=1)[:, k]
    radii_gen = np.partition(cdist(gen, gen, "sqeuclidean"), k, axis=1)[:, k]
    d_gr = cdist(gen, real, "sqeuclidean")
    precision = float((d_gr <= radii_real[None, :]).any(axis=1).mean())
    recall = float((d_gr <= radii_gen[:, None]).any(axis=0).mean())
    return precision, recall
