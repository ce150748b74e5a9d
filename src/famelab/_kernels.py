"""Numeric kernels: the fused mixture evaluation and pairwise distances.

Both are plain numpy (and scipy's cdist).  The mixture kernel works on d
per-axis (n, K) planes, so the rotations by Q are a short Python loop over the
dimension with broadcast multiply-adds inside, and the only reductions over
components are row-wise: the log-sum-exp along axis 1 of (n, K) arrays and
einsum("nk,nka->na").  Each output row is therefore computed from that row's
data alone, whatever the batch size (see `sampler`).

Array contracts (all float64, C-contiguous):
  X      (n, d)    evaluation points
  means  (K, d)    component means
  qmats  (K, d, d) eigenvector matrices Q with Sigma = Q diag(lams) Q^T
  lams   (K, d)    eigenvalues, all > 0
  logw   (K,)      log mixture weights (may include class priors)
  sig2   float     squared noise level, >= 0
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

LOG_2PI = math.log(2.0 * math.pi)


def _rotate(planes, qmats):
    """Q v per component, for v given as d (n, K) planes: plane a of the
    result is sum_b Q[:, a, b] * v_b."""
    d = len(planes)
    out = []
    for a in range(d):
        acc = planes[0] * qmats[:, a, 0]
        for b in range(1, d):
            acc = acc + planes[b] * qmats[:, a, b]
        out.append(acc)
    return out


def gmm_eval(X, means, qmats, lams, logw, sig2):
    """Fused mixture evaluation at noise level sigma = sqrt(sig2).

    Returns (logp, resp, score, denoise) where logp is the log density of the
    mixture convolved with N(0, sig2 I), resp the per-component posterior
    responsibilities, score the gradient of logp in x, and denoise the
    posterior mean E[x0 | x] under the same convolution.
    """
    d = X.shape[1]
    den = lams + sig2
    # w = Q^T (x - mu) per component; sd = w / den is Sigma_sigma^-1 (x - mu)
    # in the eigenbasis
    w = _rotate([X[:, b, None] - means[:, b] for b in range(d)], qmats.transpose(0, 2, 1))
    sd = [w[a] / den[:, a] for a in range(d)]
    with np.errstate(over="ignore"):  # quad = inf far from every component
        quad = sd[0] * w[0]
        for a in range(1, d):
            quad = quad + sd[a] * w[a]
    logdet = np.log(den).sum(axis=1)
    logcomp = logw[None, :] - 0.5 * (d * LOG_2PI + logdet)[None, :] - 0.5 * quad

    m = logcomp.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logcomp - safe[:, None])
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = safe + np.log(s)
    resp = e / np.maximum(s, 1e-300)[:, None]

    # score_k = -Q sd; posterior mean_k = mu + Q (sd * lam)
    qsd = np.stack(_rotate(sd, qmats), axis=-1)
    score = -np.einsum("nk,nka->na", resp, qsd)
    shrunk = _rotate([sd[b] * lams[:, b] for b in range(d)], qmats)
    pm = np.stack([means[:, a] + shrunk[a] for a in range(d)], axis=-1)
    denoise = np.einsum("nk,nka->na", resp, pm)
    return logp, resp, score, denoise


def pairwise_sqdist(a, b):
    """Squared euclidean distances, shape (len(a), len(b))."""
    return cdist(a, b, "sqeuclidean")
