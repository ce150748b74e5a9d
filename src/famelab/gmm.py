"""Class-conditional Gaussian mixtures with closed-form noised quantities.

Adding isotropic noise of level sigma to a mixture component N(mu, Sigma)
yields N(mu, Sigma + sigma^2 I), so the noised density, its score, and the
posterior mean E[x0 | x] (the ideal denoiser) are all available in closed
form.  Each component's covariance is eigendecomposed once at construction;
every noise level then reuses the same rotation with shifted eigenvalues.

`GmmSpec` holds its distinct components as arrays, `means`, `qmats` and
`lams`, and each mixture as one row of columns into them, log weights and
quality tags; only this module reads the rows beyond `GmmSpec.mixture`.
The marginal's row lists each table entry once per quality tag, its weight
summed over the classes that share it.  `GmmSpec.evaluate` is the one
mixture evaluation every caller uses.  It runs the kernel in two parts:
`gmm_terms` computes the weight-free terms of components at points, and
`gmm_reduce` does the weighted log-sum-exp and posterior mean over one
mixture's columns of them.  Each item is evaluated on its own: its points
are grouped by component count, and each group is one `gmm_terms` pass over
its points' own mixture entries and one `gmm_reduce` over them.  A pass
whose entries all have an eigenbasis of exactly I skips the rotations, with
the same bits.  An item's index work and both parts' work arrays depend
only on n and the item, a plan that a caller's scratch dict keeps across
calls, as the sampler's does for a chunk segment.

Class ids are positive integers; id 0 is reserved for the unconditional
(null) token used by trainable denoisers.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidArgumentError, NotFoundError, check_class_id, check_int

PRESET_NAMES = ("balanced2d", "imbalanced2d")

# ---------------------------------------------------------------------------
# The mixture kernel, on float64 arrays: X (n, d) C-contiguous points, sig2 the
# squared noise level, and each component's mean mu, eigenvectors Q and
# eigenvalues lam (Sigma = Q diag(lam) Q^T) given as planes, one per
# coordinate, broadcast against the points: (K, 1) for components every point
# shares, or (k, n) for each point's own k.  Per-point terms are
# component-major, (K, n) or (k, n), and every step runs elementwise across
# points, so row i of every result comes from point i alone, the same bits at
# any batch size.  Only max reduces along an axis.  Sums over components are
# explicit sequences in numpy's row-sum and einsum orders, never
# `.sum(axis=0)` (pairwise at n=1).

LOG_2PI = math.log(2.0 * math.pi)


def _rotate(planes, qmats, out):
    """Q v per component, for v given as d planes, into the d planes of out:
    plane a is sum_b qmats[a, b] * v_b."""
    d = len(planes)
    for a in range(d):
        np.multiply(planes[0], qmats[a, 0], out=out[a])
        for b in range(1, d):
            out[a] += planes[b] * qmats[a, b]
    return out


def _planes(table, entries):
    """Rows `entries` ((K, 1) or (k, n) indices) of a component table
    (`means`, `qmats` or `lams`) as C-ordered planes over its trailing axes:
    (d, *entries.shape), or (d, d, *entries.shape) for qmats."""
    return np.take(np.moveaxis(table, 0, -1), entries, axis=-1)


def _sum_components(e):
    """The sum over the K rows of e in numpy's order for one C-ordered (n, K)
    row: from 0.0 one by one for K < 8, else eight running sums combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; past 128 terms, the
    sum of two halves split at a multiple of 8."""
    K = len(e)
    if K < 8:
        return reduce(np.add, e, 0.0)
    if K > 128:
        half = K // 2 - K // 2 % 8
        return _sum_components(e[:half]) + _sum_components(e[half:])
    r = e[:8] + 0.0
    for i in range(8, K - K % 8, 8):
        r += e[i : i + 8]
    r = r[0::2] + r[1::2]
    return reduce(np.add, e[K - K % 8 :], (r[0] + r[1]) + (r[2] + r[3]))


def gmm_terms(X, means, qmats, lams, sig2, work=None):
    """The weight-free, per-point part of the mixture evaluation at sigma =
    sqrt(sig2).

    means and lams are (d, K, 1) planes of components every point shares,
    or (d, k, n) planes of each point's own k; qmats is (d, d, K, 1) or
    (d, d, k, n), or None when every Q is exactly I: then w = x - mu and the
    posterior mean is sd * lam + mu, with no rotation.  That gives the
    rotation's bits, since a product by an exact 1 is exact and one by an
    exact 0 can only turn a -0.0 into +0.0, which the squared quadratic
    form or the later + mu erases.  The log determinant of Sigma + sig2 I
    is each table entry's `np.log(lams + sig2).sum(axis=1)`, for the caller.

    Returns (quad, pm): quad (K, n) the squared Mahalanobis distance of each
    point under each noised component (at sig2 = 0, under Sigma itself), and
    pm (d, K, n) each component's posterior mean E[x0 | x, k].  Component k
    is quad[k] and pm[:, k] alone, computed from its own planes, so its bits
    do not depend on the components or points beside it.  work,
    a (4, d, K, n) array, holds the steps if given, and quad and pm are then
    views of it: quad its first plane, pm its last d.
    """
    d = X.shape[1]
    shape = np.broadcast_shapes(means.shape[1:], (len(X),))
    v, w, sd, pm = np.empty((4, d, *shape)) if work is None else work
    den = lams + sig2
    # w = Q^T (x - mu) per component; sd = w / den is Sigma_sigma^-1 (x - mu)
    # in the eigenbasis
    for b in range(d):
        np.subtract(X[:, b], means[b], out=v[b])
    if qmats is None:
        w = v
    else:
        _rotate(v, qmats.swapaxes(0, 1), w)
    np.divide(w, den, out=sd)
    quad = v[0]  # v is spent, and w once quad is made
    with np.errstate(over="ignore"):  # quad = inf far from every component
        np.multiply(sd[0], w[0], out=quad)
        for a in range(1, d):
            quad += sd[a] * w[a]
    # posterior mean_k = mu + Q (sd * lam); w, when it is not v, is spent
    if qmats is None:
        np.multiply(sd, lams, out=pm)
    else:
        _rotate(np.multiply(sd, lams, out=w), qmats, pm)
    pm += means
    return quad, pm


def gmm_reduce(const, quad, pm, work=None):
    """The weighted reduction over the components of one mixture.

    const holds logw - 0.5 * (d log 2pi + logdet) per component, either a
    (K, 1) column for every point or (K, n); quad (K, n) and pm (d, K, n)
    are `gmm_terms` rows in the same component order.  Returns (logp, resp,
    denoise): the log density (n,), the posterior responsibilities (K, n)
    and the posterior mean E[x0 | x] (n, d).  The normaliser adds up in
    numpy's row-sum order and the mean one component at a time, einsum's
    order for d >= 2, so the bits are those of an (n, K) row-major kernel.
    work, a (d + 1, K, n) array whose last d planes may be pm itself, holds
    the steps if given, and resp is then a view of it.
    """
    work = np.empty((len(pm) + 1, *quad.shape)) if work is None else work
    e, rp = work[0], work[1:]
    np.subtract(const, np.multiply(quad, 0.5, out=e), out=e)  # log of each term
    m = e.max(axis=0)
    safe = np.where(np.isfinite(m), m, 0.0)
    np.exp(np.subtract(e, safe, out=e), out=e)
    s = _sum_components(e)
    with np.errstate(divide="ignore"):
        logp = safe + np.log(s)
    resp = np.divide(e, np.maximum(s, 1e-300), out=e)
    mean = reduce(np.add, np.multiply(resp, pm, out=rp).swapaxes(0, 1), 0.0)
    return logp, resp, mean.T.copy()


@dataclass(frozen=True)
class GmmComponent:
    """One mixture component with a scalar quality tag.

    The tag is ground-truth sample quality for anything drawn from this
    component; scorers blend tags by posterior responsibility.
    """

    mean: np.ndarray
    cov: np.ndarray
    weight: float
    quality_tag: float

    def __post_init__(self):
        # own read-only copies: the fingerprint and the spec's table are made
        # from them, so neither the caller nor a holder of the spec may move them
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.cov, dtype=np.float64)
        mean.setflags(write=False)
        cov.setflags(write=False)
        if mean.ndim != 1 or mean.size < 1:
            raise InvalidArgumentError("component mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise InvalidArgumentError("component cov must be (d, d)")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InvalidArgumentError("component parameters must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise InvalidArgumentError("component cov must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise InvalidArgumentError("component cov must be positive definite")
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise InvalidArgumentError("component weight must be positive")
        if not np.isfinite(self.quality_tag):
            raise InvalidArgumentError("quality tag must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "quality_tag", float(self.quality_tag))

    @property
    def dim(self) -> int:
        return self.mean.size


class GmmSpec:
    """A set of class-conditional mixtures plus class priors.

    classes maps class_id -> list of GmmComponent whose weights sum to 1;
    class_priors maps the same ids to marginal probabilities summing to 1.
    The unconditional mixture is the prior-weighted union of all classes.

    `means`, `qmats` and `lams` are the component table: every distinct
    component once, in order of first use by the classes in id order (a
    component shared by several classes, like imbalanced2d's bad mode, is
    one entry; two components are one entry only when their mean and cov
    bytes are equal), its covariance eigendecomposed once.  Each mixture,
    each class in id order and then the marginal, is one row of table
    columns, log weights and quality tags, `mixture(class_id)`.  A class's
    row lists its components, logw log(weight).  The marginal's lists each
    pair of a table entry and a quality tag once, in table order, logw the
    log of sum p(c) * weight over the class components that have them,
    summed exactly (`math.fsum`), so the class order does not matter:
    imbalanced2d's marginal has 9 columns, not one per class component
    (16).  Columns of one entry under two tags stay apart, so a mode
    assignment reads the tag of the component it picked.  `evaluate` is
    the only reduction over these columns: each point over its own
    mixture's, with terms from a pass over those entries.
    """

    def __init__(self, classes: dict, class_priors: dict):
        if not classes:
            raise InvalidArgumentError("need at least one class")
        if set(classes) != set(class_priors):
            raise InvalidArgumentError("classes and class_priors must share keys")
        ids = sorted(classes)
        for cid in ids:
            check_class_id(cid)
            comps = classes[cid]
            if not comps:
                raise InvalidArgumentError(f"class {cid} has no components")
            wsum = sum(c.weight for c in comps)
            if abs(wsum - 1.0) > 1e-9:
                raise InvalidArgumentError(
                    f"class {cid} component weights sum to {wsum}, expected 1"
                )
        dims = {c.dim for comps in classes.values() for c in comps}
        if len(dims) != 1:
            raise InvalidArgumentError(f"inconsistent component dimensions: {dims}")
        psum = sum(class_priors.values())
        if abs(psum - 1.0) > 1e-9:
            raise InvalidArgumentError(f"class priors sum to {psum}, expected 1")
        if any(p <= 0 for p in class_priors.values()):
            raise InvalidArgumentError("class priors must be positive")

        self.class_ids = tuple(ids)
        self.dim = dims.pop()
        self.classes = {cid: tuple(classes[cid]) for cid in ids}
        self.class_priors = {cid: float(class_priors[cid]) for cid in ids}
        # the component table, in order of first use by the classes in id order
        comps = [c for cid in ids for c in self.classes[cid]]
        keys = [(c.mean.tobytes(), c.cov.tobytes()) for c in comps]
        entry = {key: e for e, key in enumerate(dict.fromkeys(keys))}
        cols = np.array([entry[key] for key in keys])
        distinct = [comps[keys.index(key)] for key in entry]
        eigs = [np.linalg.eigh(c.cov) for c in distinct]
        self.means = np.array([c.mean for c in distinct])
        self.lams = np.array([lam for lam, _ in eigs])
        self.qmats = np.array([q for _, q in eigs])
        # which entries' Q is exactly I, so that `gmm_terms` need not rotate
        self._eye = (self.qmats == np.eye(self.dim)).all(axis=(1, 2))
        # one row of (columns, log weights, tags) per class, in id order, then
        # the marginal's: one column per table entry and tag, in table order,
        # weighing p(c) * w summed exactly (fsum) over the classes listing it
        sizes = [len(self.classes[cid]) for cid in ids]
        logw = np.log(np.array([c.weight for c in comps]))
        tags = np.array([c.quality_tag for c in comps])
        rows = [(cols[end - k : end], logw[end - k : end], tags[end - k : end])
                for k, end in zip(sizes, np.cumsum(sizes))]
        merged = {}
        for e, c, cid in zip(cols.tolist(), comps, [cid for cid in ids for _ in self.classes[cid]]):
            merged.setdefault((e, c.quality_tag), []).append(self.class_priors[cid] * c.weight)
        marginal = sorted(merged, key=lambda key: key[0])
        summed = np.log([math.fsum(merged[key]) for key in marginal])
        rows.append(([e for e, _ in marginal], summed, [tag for _, tag in marginal]))
        self._ids = np.array(ids, dtype=np.int64)
        self._row_of = {cid: row for row, cid in enumerate([*ids, None])}
        # entries past a row's width repeat its first column and are never reduced over
        self._width = np.array([len(c) for c, _, _ in rows])
        self._cols = np.empty((len(rows), self._width.max()), dtype=np.intp)
        self._logw = np.full(self._cols.shape, -np.inf)
        self._tags = np.zeros(self._cols.shape)
        for row, (c, w, t) in enumerate(rows):
            self._cols[row] = c[0]
            self._cols[row, : len(c)], self._logw[row, : len(c)], self._tags[row, : len(c)] = c, w, t
        # exact_sampler's component CDF of each row, from weights exp(logw)
        weights = np.exp(self._logw)
        self._cdfs = [choice_cdf(w[:k] / w[:k].sum()) for w, k in zip(weights, self._width)]

    def _row(self, class_id):
        """The mixture-table row of one class id, or of the marginal for None;
        a bool or a float is no class id."""
        if isinstance(class_id, bool) or not isinstance(class_id, (numbers.Integral, type(None))):
            raise NotFoundError(f"unknown class id {class_id!r}")
        try:
            return self._row_of[class_id]
        except KeyError:
            raise NotFoundError(f"unknown class id {class_id!r}") from None

    def mixture(self, class_id):
        """(cols, logw, tags) of one class's mixture, or of the marginal for
        None: its columns of the component table and their log weights and
        quality tags, views of its row."""
        r = self._row(class_id)
        k = self._width[r]
        return self._cols[r, :k], self._logw[r, :k], self._tags[r, :k]

    def _rows(self, mixture, n):
        """The mixture-table row of a class id or None, or for an (n,) array
        of integer class ids, each point's row."""
        if np.ndim(mixture) == 0:
            return self._row(mixture)
        ids = np.asarray(mixture)
        if ids.shape != (n,):
            raise InvalidArgumentError(f"class_ids must have shape ({n},), got {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise NotFoundError(f"class ids must be integers, got dtype {ids.dtype}")
        rows = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        unknown = self._ids[rows] != ids
        if unknown.any():
            raise NotFoundError(f"unknown class id {ids[unknown][0]!r}")
        return rows

    def _groups(self, rows, n):
        """The points of per-point mixture rows grouped by component count
        k, never padded: zero terms past width 8 regroup the pairwise sum;
        one row is one group, a column every point shares.  Per group, (its
        points, or a slice when they are all n, and (k, points) or (k, 1)
        flat indices into an array of one value per mixture-table row and
        column, such as the table's columns or each call's constants)."""
        if np.ndim(rows) == 0:
            rows, n = np.array([rows]), 1
        widths = self._width[rows]
        groups = []
        for k in np.flatnonzero(np.bincount(widths)):
            pts = np.flatnonzero(widths == k)
            cflat = rows[pts] * self._cols.shape[1] + np.arange(k)[:, None]
            groups.append((slice(None) if len(pts) == n else pts, cflat))
        return groups

    def _plan(self, n, mixture):
        """What `evaluate` needs of n points and one item besides X and
        sigma: a list of its `_groups`, (points, flat indices into const,
        `gmm_terms`' (means, qmats, lams) planes of the group's own entries,
        qmats None when each of their Q is exactly I, const work, work),
        where work holds `gmm_terms`' 4 * d planes of (k, points)."""
        d, at = self.dim, np.arange(n)
        groups = []
        for pts, cflat in self._groups(self._rows(mixture, n), n):
            entries = self._cols.take(cflat)
            qmats = None if self._eye[entries].all() else _planes(self.qmats, entries)
            terms = _planes(self.means, entries), qmats, _planes(self.lams, entries)
            work = np.empty((4 * d, len(cflat), len(at[pts])))
            groups.append((pts, cflat, terms, np.empty(cflat.shape), work))
        return groups

    def evaluate(self, X, sigma, mixtures, scratch=None):
        """Several mixtures at the points X, a `check_points` batch, convolved
        with N(0, sigma^2 I).

        Each item of mixtures is a class id, None for the marginal, or an
        (n,) integer array of class ids, one per point; one id (or None) is
        that mixture at every point.  Each item is evaluated on its own,
        whatever the list beside it: its points are grouped by component
        count k, and each group is one `gmm_terms` pass over its points' own
        k entries, which one `gmm_reduce` reads as they are.  A class id or
        the marginal is one group of columns every point shares, the
        marginal's one per distinct entry and tag (`GmmSpec`).  A pass
        whose entries all have Q exactly I skips the rotations, as
        `gmm_terms` says, with the same bits.

        What depends only on n and an item is a `_plan`; scratch, a dict,
        keeps one per list position, reused while n and the item there equal
        the ones it was built from (a class id or None by its mixture row,
        an array by dtype and bytes), so the sampler's [ids, None] and [ids]
        share ids' plan; resp and quad are then its arrays, overwritten by
        its next call.

        Returns one (logp, resp, denoise, quad) per item: the log density
        (-inf where it underflows), the posterior responsibilities, the
        posterior mean E[x0 | x] (n, d) and the squared Mahalanobis distances
        under the noised components.  resp and quad are component-major (K, n)
        over one mixture's columns, and None for a per-point item.
        """
        n, d = X.shape
        plans = {} if scratch is None else scratch.setdefault("gmm_plans", {})
        keys = [(n, self._row(m)) if np.ndim(m) == 0 else (n, *_ids_key(m)) for m in mixtures]
        for i, (m, key) in enumerate(zip(mixtures, keys)):
            if plans.get(i, (None,))[0] != key:
                plans[i] = key, self._plan(n, m)
        sig2 = float(sigma) ** 2
        # every mixture's constant terms, from each table entry's log det
        const = self._logw - 0.5 * (d * LOG_2PI + np.log(self.lams + sig2).sum(axis=1)[self._cols])
        out = []
        for i, m in enumerate(mixtures):
            logp, denoise = np.empty(n), np.empty((n, d))
            for pts, cflat, terms, cwork, work in plans[i][1]:
                q, p = gmm_terms(X[pts], *terms, sig2, work.reshape(4, d, *work.shape[1:]))
                # gmm_reduce's d + 1 planes: sd's last, spent, then pm
                logp[pts], resp, denoise[pts] = gmm_reduce(const.take(cflat, out=cwork), q, p, work[-d - 1 :])
            out.append((logp, resp, denoise, q) if np.ndim(m) == 0 else (logp, None, denoise, None))
        return out

    def fingerprint(self) -> int:
        blob = json.dumps(_spec_to_dict(self), sort_keys=True).encode()
        h = hashlib.blake2b(blob, digest_size=8)
        return int.from_bytes(h.digest(), "little")


def _ids_key(ids):
    """An array of class ids by content: its dtype, shape and bytes."""
    ids = np.asarray(ids)
    return ids.dtype.str, ids.shape, ids.tobytes()


def check_points(spec, x, sigma):
    """x as a validated C-contiguous (n, d) float64 batch, and whether it
    was a single vector; sigma must be finite and >= 0."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.ascontiguousarray(np.atleast_2d(x))
    if X.shape[1] != spec.dim:
        raise InvalidArgumentError(f"points have dim {X.shape[1]}, spec has {spec.dim}")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("points must be finite")
    if not (sigma >= 0 and np.isfinite(sigma)):
        raise InvalidArgumentError(f"sigma must be finite and >= 0, got {sigma}")
    return single, X


def _eval(spec, x, sigma, class_id):
    """One mixture at x: whether x was a single vector, and `evaluate`'s
    (logp, resp, denoise, quad), resp and quad as C-ordered (n, K) copies."""
    if np.ndim(class_id):
        raise InvalidArgumentError(f"class_id must be one class id or None, got {class_id!r}")
    single, X = check_points(spec, x, sigma)
    [(logp, resp, denoise, quad)] = spec.evaluate(X, sigma, [class_id])
    return single, (logp, resp.T.copy(), denoise, quad.T.copy())


def noised_log_density(spec: GmmSpec, x, sigma: float, class_id=None):
    """log p(x; sigma) of the mixture convolved with N(0, sigma^2 I).

    Accepts a single vector or an (n, d) batch; underflow far from all
    components returns -inf rather than raising.
    """
    single, (logp, *_) = _eval(spec, x, sigma, class_id)
    return float(logp[0]) if single else logp


def responsibilities(spec: GmmSpec, x, class_id=None, sigma: float = 0.0):
    """Posterior component membership probabilities, shape (n, K)."""
    single, (_, resp, *_) = _eval(spec, x, sigma, class_id)
    return resp[0] if single else resp


def choice_cdf(p):
    """The CDF `Generator.choice(len(p), size=n, p=p)` draws from: p.cumsum()
    divided by its last entry.  cdf.searchsorted(rng.random(n), side="right")
    takes the same indices, and the same draws from rng, as that call, without
    checking p again on each one."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def exact_sampler(spec: GmmSpec, rng: np.random.Generator, class_id=None, n: int = 1) -> np.ndarray:
    """Draw exact clean samples, shape (n, d).

    class_id None samples the marginal mixture (class by prior, then
    component).  Draw order is fixed: component indices first, then one
    batch of unit normals, so results depend only on the rng seed.
    """
    check_int("n", n)
    if n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    r = spec._row(class_id)
    idx = spec._cdfs[r].searchsorted(rng.random(n), side="right")
    z = rng.standard_normal((n, spec.dim))
    out = np.empty((n, spec.dim))
    for k in np.unique(idx):
        rows = idx == k
        e = spec._cols[r, k]
        scaled = z[rows] * np.sqrt(spec.lams[e])[None, :]
        out[rows] = spec.means[e][None, :] + scaled @ spec.qmats[e].T
    return out


def sample_clean_batch(spec: GmmSpec, rng: np.random.Generator, class_ids: np.ndarray) -> np.ndarray:
    """Clean samples for a vector of class ids (training batches).

    Classes are processed in sorted order with per-class draws, so the result
    is a pure function of (seed, class_ids): `exact_sampler`'s bits.  Where
    every Q is exactly I (a product by it is exact), all rows are transformed
    at once; a rotation BLAS rounds by row count, so otherwise per class.
    """
    class_ids = np.asarray(class_ids)
    out = np.empty((len(class_ids), spec.dim))
    entries = np.empty(len(class_ids), dtype=np.intp)
    eye = spec._eye.all()
    for cid in np.unique(class_ids):
        rows = np.flatnonzero(class_ids == cid)
        if not eye:
            out[rows] = exact_sampler(spec, rng, class_id=int(cid), n=len(rows))
            continue
        r = spec._row(int(cid))
        entries[rows] = spec._cols[r, spec._cdfs[r].searchsorted(rng.random(len(rows)), side="right")]
        out[rows] = rng.standard_normal((len(rows), spec.dim))
    return spec.means[entries] + out * np.sqrt(spec.lams[entries]) if eye else out


# ---------------------------------------------------------------------------
# Presets
#
# Both presets place 8 class modes on a radius-5 ring.  imbalanced2d adds a
# single wide low-quality mode at the origin shared by every class: because it
# is common to the conditional and unconditional mixtures, classifier-free
# guidance barely moves mass out of it, which is exactly the failure mode the
# replay guidance is meant to escape.  Separation between mode centers and the
# shared mode is 5 / 0.8 = 6.25 standard deviations.

N_PRESET_CLASSES = 8
GOOD_TAG = 2.6
BAD_TAG = 1.4
_RING_RADIUS = 5.0
_GOOD_STD = 0.35
_BAD_STD = 0.8
_BAD_WEIGHT = 0.1


def _ring_mean(c: int) -> np.ndarray:
    ang = 2.0 * math.pi * (c - 1) / N_PRESET_CLASSES
    return _RING_RADIUS * np.array([math.cos(ang), math.sin(ang)])


def preset(name: str) -> GmmSpec:
    """Built-in 2-D datasets: "balanced2d" (every class a single high-quality
    mode) and "imbalanced2d" (each class leaks 10% of its mass into a shared
    wide low-quality mode at the origin)."""
    if name not in PRESET_NAMES:
        raise NotFoundError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    eye = np.eye(2)
    classes = {}
    for c in range(1, N_PRESET_CLASSES + 1):
        good = GmmComponent(
            mean=_ring_mean(c),
            cov=_GOOD_STD**2 * eye,
            weight=1.0 if name == "balanced2d" else 1.0 - _BAD_WEIGHT,
            quality_tag=GOOD_TAG,
        )
        if name == "balanced2d":
            classes[c] = [good]
        else:
            bad = GmmComponent(
                mean=np.zeros(2),
                cov=_BAD_STD**2 * eye,
                weight=_BAD_WEIGHT,
                quality_tag=BAD_TAG,
            )
            classes[c] = [good, bad]
    priors = {c: 1.0 / N_PRESET_CLASSES for c in classes}
    return GmmSpec(classes, priors)


# ---------------------------------------------------------------------------
# JSON spec files


def _spec_to_dict(spec: GmmSpec) -> dict:
    return {
        "classes": {
            str(cid): [
                {
                    "mean": c.mean.tolist(),
                    "cov": c.cov.tolist(),
                    "weight": c.weight,
                    "quality_tag": c.quality_tag,
                }
                for c in comps
            ]
            for cid, comps in spec.classes.items()
        },
        "class_priors": {str(cid): p for cid, p in spec.class_priors.items()},
    }


def save_spec(spec: GmmSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(_spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> GmmSpec:
    """Load and fully validate a mixture description from JSON."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"not valid JSON: {path} ({exc})") from exc
    if not isinstance(raw, dict) or "classes" not in raw or "class_priors" not in raw:
        raise InvalidArgumentError(f"{path}: expected object with 'classes' and 'class_priors'")
    try:
        classes = {
            int(cid): [
                GmmComponent(
                    mean=np.asarray(c["mean"], dtype=np.float64),
                    cov=np.asarray(c["cov"], dtype=np.float64),
                    weight=c["weight"],
                    quality_tag=c["quality_tag"],
                )
                for c in comps
            ]
            for cid, comps in raw["classes"].items()
        }
        priors = {int(cid): float(p) for cid, p in raw["class_priors"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: malformed mixture description ({exc})") from exc
    return GmmSpec(classes, priors)
