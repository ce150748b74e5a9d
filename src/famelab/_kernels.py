"""Numeric kernels: the fused mixture evaluation and pairwise distances.

Both are plain numpy (and scipy's cdist).  The mixture kernel works on d
per-axis (n, K) planes, so the rotations by Q are a short Python loop over the
dimension with broadcast multiply-adds inside, and the only reductions over
components are row-wise: the log-sum-exp along axis 1 of (n, K) arrays and
einsum("nk,nka->na").  Each output row is therefore computed from that row's
data alone, whatever the batch size (see `sampler`).

The evaluation comes in two parts.  `gmm_terms` computes what each component
contributes independently of the mixture weights (log determinant, quadratic
form, posterior mean); `gmm_reduce` takes any selection of those columns with
their log weights and does the log-sum-exp and the responsibility-weighted
mean.  `gmm.GmmSpec.evaluate` is their one caller: it evaluates each distinct
component a set of mixtures needs once and reduces once per mixture.  Every
column depends on its own component alone, so a mixture reduced from a
shared pass carries the bits of that mixture evaluated on its own.

Array contracts (all float64, C-contiguous):
  X      (n, d)    evaluation points
  means  (K, d)    component means
  qmats  (K, d, d) eigenvector matrices Q with Sigma = Q diag(lams) Q^T
  lams   (K, d)    eigenvalues, all > 0
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


def gmm_terms(X, means, qmats, lams, sig2):
    """The weight-free part of the mixture evaluation at sigma = sqrt(sig2).

    Returns (logdet, quad, pm): logdet (K,) the log determinant of each
    noised covariance Sigma + sig2 I, quad (n, K) the squared Mahalanobis
    distance of each point under it (at sig2 = 0, under Sigma itself), and
    pm (n, K, d) each component's posterior mean E[x0 | x, k].  Every column
    depends on its own component alone, so a caller may evaluate a table of
    components once and hand any selection of its columns to `gmm_reduce`.
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
    # posterior mean_k = mu + Q (sd * lam)
    shrunk = _rotate([sd[b] * lams[:, b] for b in range(d)], qmats)
    pm = np.stack([means[:, a] + shrunk[a] for a in range(d)], axis=-1)
    return logdet, quad, pm


def gmm_reduce(const, quad, pm):
    """The weighted reduction over the components of one mixture.

    const holds logw - 0.5 * (d log 2pi + logdet) per component, either one
    (1, K) row for every point or an (n, K) row per point; quad (n, K) and
    pm (n, K, d) are `gmm_terms` columns in the same component order.
    Returns (logp, resp, denoise): the log density, the posterior
    responsibilities and the posterior mean E[x0 | x].

    The row sums run over C-ordered (n, K) arrays, where numpy adds K >= 8
    terms pairwise; over a column-major array (what `quad[:, cols]` returns)
    it adds them one by one, so logcomp is made C-ordered first.
    """
    logcomp = np.ascontiguousarray(const - 0.5 * quad)
    m = logcomp.max(axis=1)
    safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(logcomp - safe[:, None])
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = safe + np.log(s)
    resp = e / np.maximum(s, 1e-300)[:, None]
    denoise = np.einsum("nk,nka->na", resp, pm)
    return logp, resp, denoise


def pairwise_sqdist(a, b):
    """Squared euclidean distances, shape (len(a), len(b))."""
    return cdist(a, b, "sqeuclidean")
