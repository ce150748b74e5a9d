"""Mixture oracles that evaluate each mixture from its own component arrays.

The package evaluates mixtures in one place, `GmmSpec.evaluate`, which runs
the kernel over each mixture's table entries, from the spec's rows of
column indices.  The oracles here take the other route: they hand one
mixture's components (`spec.means[cols]` and the like for the `cols` of
`spec.mixture`) straight to a kernel of their own, and never call
`GmmSpec.evaluate`, so a test comparing the two compares two paths.  That
kernel, `_gmm_terms_rows` then `_gmm_reduce_rows`, is the package's earlier
row-major one, kept verbatim: (n, K) arrays, numpy's own row sums and an
einsum for the posterior mean.  The package's component-major kernel must
give its bits, so the comparison pins the layout change too; only at d = 1,
where that einsum takes a vectorised dot-product path, do the posterior
means agree to rounding instead.  The score, which the package no longer computes, is
the responsibility-weighted -Sigma_sigma^-1 (x - mu) of each component.
`unmerged_marginal_arrays` is the marginal as the prior-weighted union of
the classes' own components, every duplicate a column of its own, and
`merged_marginal` its merged columns; both are built from the classes and
priors alone, not from the spec's rows.
`assign_modes_two_pass` is the earlier mode assignment: the
responsibilities, then a second pass for the einsum Mahalanobis distance.
`exact_sampler_choice` is the earlier exact sampler, which drew component
indices with `Generator.choice` over the row's weights; the package's draw
from a cached CDF must give its bits and leave the generator as it did.
`precision_recall_dense` is the earlier k-NN precision/recall on full
`cdist` matrices, which the package's grid search must match exactly.
`select_indices_buckets` is the earlier failure-pool binding, one index
array per class and a loop over trajectories, which the package's run
bounds found by binary search must match index for index.
`guided_combination` is the earlier guidance rule, four functions and the
branches of the earlier `GuidedSource.step`, which `guidance.blend` over
`guidance.weights` must match bit for bit, returning d1 itself where it did.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from famelab.errors import DegeneratePointError, InvalidArgumentError
from famelab.gmm import check_points
from famelab.guidance import GuidanceConfig
from famelab.pool import _SELECT_SALT
from famelab.schedule import splitmix64

LOG_2PI = math.log(2.0 * math.pi)


def _rotate_rows(planes, qmats):
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


def _gmm_terms_rows(X, means, qmats, lams, sig2):
    """The weight-free part of the mixture evaluation at sigma = sqrt(sig2).

    Returns (logdet, quad, pm): logdet (K,) the log determinant of each
    noised covariance Sigma + sig2 I, quad (n, K) the squared Mahalanobis
    distance of each point under it (at sig2 = 0, under Sigma itself), and
    pm (n, K, d) each component's posterior mean E[x0 | x, k].  Every column
    depends on its own component alone, so a caller may evaluate a table of
    components once and hand any selection of its columns to `_gmm_reduce_rows`.
    """
    d = X.shape[1]
    den = lams + sig2
    # w = Q^T (x - mu) per component; sd = w / den is Sigma_sigma^-1 (x - mu)
    # in the eigenbasis
    w = _rotate_rows([X[:, b, None] - means[:, b] for b in range(d)], qmats.transpose(0, 2, 1))
    sd = [w[a] / den[:, a] for a in range(d)]
    with np.errstate(over="ignore"):  # quad = inf far from every component
        quad = sd[0] * w[0]
        for a in range(1, d):
            quad = quad + sd[a] * w[a]
    logdet = np.log(den).sum(axis=1)
    # posterior mean_k = mu + Q (sd * lam)
    shrunk = _rotate_rows([sd[b] * lams[:, b] for b in range(d)], qmats)
    pm = np.stack([means[:, a] + shrunk[a] for a in range(d)], axis=-1)
    return logdet, quad, pm


def _gmm_reduce_rows(const, quad, pm):
    """The weighted reduction over the components of one mixture.

    const holds logw - 0.5 * (d log 2pi + logdet) per component, either one
    (1, K) row for every point or an (n, K) row per point; quad (n, K) and
    pm (n, K, d) are `_gmm_terms_rows` columns in the same component order.
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


def gmm_eval(X, means, qmats, lams, logw, sig2):
    """(logp, resp, score, denoise) of one mixture at sigma = sqrt(sig2)."""
    d = X.shape[1]
    logdet, quad, pm = _gmm_terms_rows(X, means, qmats, lams, sig2)
    const = logw[None, :] - 0.5 * (d * LOG_2PI + logdet)[None, :]
    logp, resp, denoise = _gmm_reduce_rows(const, quad, pm)
    w = np.einsum("nkb,kba->nka", X[:, None, :] - means[None, :, :], qmats)
    score = -np.einsum("nk,kab,nkb->na", resp, qmats, w / (lams[None, :, :] + sig2))
    return logp, resp, score, denoise


def mixture_arrays(spec, class_id=None):
    """(means, qmats, lams, logw) of one class's mixture, or the marginal's,
    as the spec's own row lists them."""
    cols, logw, _ = spec.mixture(class_id)
    return spec.means[cols], spec.qmats[cols], spec.lams[cols], logw


def _component_arrays(comps, logw):
    eigs = [np.linalg.eigh(c.cov) for c in comps]
    means = np.array([c.mean for c in comps])
    return means, np.array([q for _, q in eigs]), np.array([lam for lam, _ in eigs]), np.asarray(logw)


def unmerged_marginal_arrays(spec):
    """(means, qmats, lams, logw) of the marginal as the prior-weighted union
    of the classes, from `spec.classes` and `spec.class_priors` alone: one
    column per class component, in class id order (imbalanced2d: 16 over 9
    distinct Gaussians), log weight log w + log p(c)."""
    pairs = [(c, p) for cid, p in sorted(spec.class_priors.items()) for c in spec.classes[cid]]
    return _component_arrays([c for c, _ in pairs], [math.log(c.weight) + math.log(p) for c, p in pairs])


def merged_marginal(spec):
    """The marginal's merged columns, rebuilt from `spec.classes` and
    `spec.class_priors` alone: one per distinct mean and cov (by bytes) and
    quality tag, ordered by the first class component with that mean and
    cov, in class id order, then by the tag's first appearance; log weight
    the log of the exact (fsum) sum of p(c) * w over its members.

    Returns ((means, qmats, lams, logw), members): members[j] lists the
    `unmerged_marginal_arrays` columns that column j merges."""
    pairs = [(c, p) for cid, p in sorted(spec.class_priors.items()) for c in spec.classes[cid]]
    first, groups = {}, {}
    for i, (c, _) in enumerate(pairs):
        gaussian = c.mean.tobytes(), c.cov.tobytes()
        first.setdefault(gaussian, len(first))
        groups.setdefault((first[gaussian], c.quality_tag), []).append(i)
    order = sorted(groups, key=lambda key: key[0])
    members = [groups[key] for key in order]
    logw = np.log(np.array([math.fsum(pairs[i][1] * pairs[i][0].weight for i in m) for m in members]))
    return _component_arrays([pairs[m[0]][0] for m in members], logw), members


def _eval(spec, x, sigma, class_id):
    single, X = check_points(spec, x, sigma)
    logp, _, score, denoise = gmm_eval(X, *mixture_arrays(spec, class_id), float(sigma) ** 2)
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
    means, qmats, lams, _ = mixture_arrays(spec, class_id)
    w = np.einsum("nkb,kba->nka", X[:, None, :] - means[None, :, :], qmats)
    return np.einsum("nka,nka->nk", w / lams[None, :, :], w)


def assign_modes_two_pass(spec, samples, class_id=None, max_mahalanobis=4.0):
    """Argmax responsibility, or -1 past max_mahalanobis of every component."""
    X = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    idx = gmm_eval(X, *mixture_arrays(spec, class_id), 0.0)[1].argmax(axis=1)
    return np.where(mahalanobis_sq(spec, X, class_id).min(axis=1) > max_mahalanobis**2, -1, idx)


def exact_sampler_choice(spec, rng, class_id, n):
    """Exact clean samples, component indices by `rng.choice` with the
    weights exp(logw) of the mixture's row, then one batch of unit normals."""
    r = spec._row(class_id)
    weights = np.exp(spec._logw)[r, : spec._width[r]]
    idx = rng.choice(len(weights), size=n, p=weights / weights.sum())
    z = rng.standard_normal((n, spec.dim))
    out = np.empty((n, spec.dim))
    for k in np.unique(idx):
        rows = idx == k
        e = spec._cols[r, k]
        scaled = z[rows] * np.sqrt(spec.lams[e])[None, :]
        out[rows] = spec.means[e][None, :] + scaled @ spec.qmats[e].T
    return out


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


def select_indices_buckets(pool, seeds, class_ids=None):
    """Each trajectory's bound pool record: in global mode the seed hash
    modulo the pool size, in per-class mode the hash modulo the size of the
    class's bucket, the array of that class's record indices."""
    mix = splitmix64(np.asarray(seeds, dtype=np.uint64) ^ _SELECT_SALT)
    if pool.mode == "global":
        return (mix % np.uint64(len(pool))).astype(np.int64)
    cls = pool.records["class_id"]
    buckets = {int(c): np.flatnonzero(cls == c) for c in np.unique(cls)}
    out = np.empty(len(mix), dtype=np.int64)
    for i, c in enumerate(np.asarray(class_ids)):
        bucket = buckets[int(c)]
        out[i] = bucket[int(mix[i] % np.uint64(len(bucket)))]
    return out


def cfg_combine(d1, d0, w: float):
    """Classifier-free blend w*d1 + (1-w)*d0.

    w=1 returns d1 itself, bit-identical to conditional-only sampling; d0 may
    be None in that case.
    """
    if w == 1.0:
        return d1
    return w * d1 + (1.0 - w) * d0


def fame_combine(d1, d0, d_neg, w: float, f: float):
    """Three-term blend (w+f)*d1 + (1-w)*d0 - f*d_neg.

    f=0 delegates to cfg_combine, making plain CFG a bit-identical special
    case; at w=1 the unconditional term drops out and d0 may be None.
    """
    if f == 0.0:
        return cfg_combine(d1, d0, w)
    if w == 1.0:
        return (1.0 + f) * d1 - f * d_neg
    return (w + f) * d1 + (1.0 - w) * d0 - f * d_neg


def replay_active(cfg: GuidanceConfig, k: int, T: int) -> bool:
    """Whether the replay term applies at evaluation index k of T.

    Pure function of the index: the window is the last tau fraction of
    normalized time, t = k/T >= 1 - tau.
    """
    return cfg.f > 0.0 and k / T >= 1.0 - cfg.tau


def effective_w(cfg: GuidanceConfig, k: int, T: int) -> float:
    """CFG scale at evaluation index k; outside cfg_interval w collapses to 1."""
    if cfg.cfg_interval is None:
        return cfg.w
    lo, hi = cfg.cfg_interval
    t = k / T
    return cfg.w if lo <= t <= hi else 1.0


def guided_combination(cfg: GuidanceConfig, k: int, T: int, d1, d0, d_neg):
    """The guided output at evaluation index k of T, as the earlier
    `GuidedSource.step` combined it (a pool is present whenever f > 0)."""
    w = effective_w(cfg, k, T)
    if replay_active(cfg, k, T):
        return fame_combine(d1, d0, d_neg, w, cfg.f)
    return cfg_combine(d1, d0, w)
