"""Sample-quality measurement.

Scorers map final samples to scalar quality; distribution fidelity is
measured by Frechet distance between gaussian moment fits and k-NN manifold
precision/recall, whose grid candidates are rechecked on exact squared
distances so that results equal the all-pairs computation.  Mixture-aware
helpers assign samples to components through `GmmSpec.evaluate` so runs can
report how much mass landed in low-quality modes.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ScorerFailedError, check_int
from .gmm import GmmSpec, _eval, check_points, noised_log_density, responsibilities

# Quality tiers: class means below T_LOW are reported "low", above T_HIGH
# "top", anything between lands in the inconsistent middle band.
T_LOW = 2.0
T_HIGH = 2.5

OUTLIER_MAHALANOBIS = 4.0
# rows per mode-assignment pass, whatever the number of samples
MODE_BLOCK = 1024

# k of the k-NN precision/recall, and the points per side evaluate thins to
KNN_K = 3
KNN_MAX = 2048
# centres paired per grid query, whatever the set sizes
KNN_BLOCK = 512


class ComponentTagScorer:
    """Ground-truth quality: responsibility-weighted component tags.

    Every mixture component carries a scalar quality tag; a sample's score is
    the posterior-probability blend of the tags of the components it could
    have come from, evaluated under the clean (sigma = 0) mixture.
    """

    id = "component-tag"

    def __init__(self, spec: GmmSpec):
        self.spec = spec

    def __call__(self, samples, class_id=None) -> np.ndarray:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        r = responsibilities(self.spec, samples, class_id, sigma=0.0)
        return r @ self.spec.mixture(class_id)[2]


class LogDensityScorer:
    """Scores samples by their clean log density (higher is more typical)."""

    id = "log-density"

    def __init__(self, spec: GmmSpec):
        self.spec = spec

    def __call__(self, samples, class_id=None) -> np.ndarray:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        return noised_log_density(self.spec, samples, 0.0, class_id)


class ExternalScorer:
    """Scores samples through an external command.

    The command receives one sample per line (space-separated decimal floats)
    on stdin and must print exactly one score per line on stdout.  Nonzero
    exit, line-count mismatch, or non-numeric output raises ScorerFailedError
    with the command's diagnostics.
    """

    id = "external"

    def __init__(self, command):
        try:
            self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise InvalidArgumentError(f"external scorer command {command!r}: {exc}") from exc
        if not self.argv:
            raise InvalidArgumentError("external scorer command is empty")

    def __call__(self, samples, class_id=None) -> np.ndarray:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        text = "\n".join(" ".join(format(v, ".17g") for v in row) for row in samples)
        try:
            proc = subprocess.run(
                self.argv, input=text + "\n", capture_output=True, text=True
            )
        except OSError as exc:
            raise ScorerFailedError(f"could not run {self.argv[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise ScorerFailedError(
                f"scorer exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        lines = proc.stdout.rstrip().splitlines()
        if len(lines) != len(samples):
            raise ScorerFailedError(
                f"scorer returned {len(lines)} values for {len(samples)} samples"
            )
        try:
            return np.array([float(v) for v in lines])
        except ValueError as exc:
            raise ScorerFailedError(f"non-numeric scorer output: {exc}") from exc


_BUILTIN_SCORERS = {cls.id: cls for cls in (ComponentTagScorer, LogDensityScorer)}
_EXTERNAL_PREFIX = "external:"


def check_scorer_id(ident) -> None:
    """Raise InvalidArgumentError unless make_scorer accepts ident."""
    if not isinstance(ident, str):
        raise InvalidArgumentError(f"scorer id must be a string, got {ident!r}")
    if ident.startswith(_EXTERNAL_PREFIX):
        ExternalScorer(ident[len(_EXTERNAL_PREFIX) :])
    elif ident not in _BUILTIN_SCORERS:
        raise InvalidArgumentError(f"unknown scorer {ident!r}")


def make_scorer(spec, ident: str):
    """Build a scorer from its config identifier.

    "component-tag" and "log-density" need a mixture; "external:<command>"
    runs the given shell command per batch.
    """
    check_scorer_id(ident)
    if ident in _BUILTIN_SCORERS:
        return _BUILTIN_SCORERS[ident](spec)
    return ExternalScorer(ident[len(_EXTERNAL_PREFIX) :])


# ---------------------------------------------------------------------------
# Distribution distances


def check_sample_size(n_per_class, n_classes, dim) -> None:
    """Raise InvalidArgumentError unless `evaluate` can measure n_per_class
    samples of dimension dim in each of n_classes classes: each class's
    Frechet fit needs dim + 1 of them, the pooled k-NN metrics KNN_K + 1."""
    if n_per_class < dim + 1:
        raise InvalidArgumentError(
            f"evaluation needs n_per_class >= d+1 = {dim + 1}, got {n_per_class}"
        )
    if n_per_class * n_classes < KNN_K + 1:
        raise InvalidArgumentError(
            f"evaluation needs at least k+1 = {KNN_K + 1} samples over all classes, "
            f"got {n_per_class * n_classes}"
        )


def _moments(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidArgumentError("sample sets must be (n, d)")
    if len(x) < x.shape[1] + 1:
        raise InvalidArgumentError(
            f"need at least d+1 = {x.shape[1] + 1} samples, got {len(x)}"
        )
    mu = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    return mu, cov


def _frechet_from_moments(mu_a, cov_a, mu_b, cov_b):
    """Gaussian Frechet distance via eigendecompositions; returns None when a
    covariance is degenerate (an eigenvalue below 1e-12, including the tiny
    negatives eigh produces for singular fits)."""
    la, qa = np.linalg.eigh(cov_a)
    lb = np.linalg.eigvalsh(cov_b)
    if la.min() < 1e-12 or lb.min() < 1e-12:
        return None
    sa = (qa * np.sqrt(la)) @ qa.T
    lm = np.linalg.eigvalsh(sa @ cov_b @ sa)
    # cross-term eigenvalues may round slightly negative for skewed inputs
    if lm.min() < -1e-10:
        return None
    tr_sqrt = np.sqrt(np.clip(lm, 0.0, None)).sum()
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)


def frechet_with_flag(a, b) -> tuple[float, bool]:
    """Frechet distance plus a flag marking epsilon-regularized covariances.

    Degenerate covariance fits (collapsed or rank-deficient sample sets) get
    1e-6 added to both diagonals before retrying.
    """
    mu_a, cov_a = _moments(a)
    mu_b, cov_b = _moments(b)
    if cov_a.shape != cov_b.shape:
        raise InvalidArgumentError("sample sets have different dimensions")
    v = _frechet_from_moments(mu_a, cov_a, mu_b, cov_b)
    regularized = False
    if v is None:
        regularized = True
        eye = 1e-6 * np.eye(len(cov_a))
        v = _frechet_from_moments(mu_a, cov_a + eye, mu_b, cov_b + eye)
        if v is None:
            raise InvalidArgumentError("covariances unusable even after regularization")
    if -1e-8 < v < 0.0:
        v = 0.0
    return v, regularized


def frechet_distance(a, b) -> float:
    """Frechet distance between gaussian fits of two sample sets."""
    return frechet_with_flag(a, b)[0]


def _sqdist(a, b):
    """Squared distances of points given as coordinate arrays, in cdist's order."""
    return sum((x - y) ** 2 for x, y in zip(a, b))


class _Grids:
    """A point set bucketed by cell over its first m = min(d, 2) coordinates,
    at levels j of cell side h0 * 2**j / 2, each level built on first use."""

    def __init__(self, points):
        self.points, self.levels, self.lo = points, {}, points[:, :2].min(axis=0)
        h0 = max(np.ptp(c) for c in points.T) / (2 * np.sqrt(len(points)))
        self.h0 = h0 if 1e-150 < h0 < 1e140 else np.inf  # else squares could over/underflow
        # level j pairs a centre with every point within squared radius reach * 4**j:
        # two cells, less a margin far above the rounding of a cell coordinate
        self.reach = (self.h0 * (1 - 1e-9)) ** 2

    def pairs(self, j, centres, within):
        """(owner, position in the order by cell `levels[j][0]`, exact squared
        distance) of the points of the 5^m cells around each centre `within` it."""
        if j not in self.levels:
            h = np.ldexp(self.h0, j - 1)
            cells = ((self.points[:, :2] - self.lo) / h).astype(np.intp)
            shape = tuple(c.max() + 5 for c in cells.T)  # two margin cells on each side
            key = np.ravel_multi_index(tuple(cells.T + 2), shape)
            order, starts = np.argsort(key), np.zeros(np.prod(shape) + 1, dtype=np.intp)
            np.cumsum(np.bincount(key, minlength=len(starts) - 1), out=starts[1:])
            self.levels[j] = order, h, shape, starts, self.points[order].T.copy()
        _, h, shape, starts, cols = self.levels[j]
        # clipped before the cast: a centre beyond the grid sees its edge cells
        cells = np.clip((centres[:, : len(shape)] - self.lo) / h, 0, np.subtract(shape, 5))
        key = np.ravel_multi_index(tuple(cells.T.astype(np.intp) + 2), shape)
        # each row of 5 cells along the last axis is one run of sorted points
        rows = key[:, None] + (np.arange(-2, 3) * shape[1] if len(shape) == 2 else 0)
        first, lens = starts[rows - 2], starts[rows + 3] - starts[rows - 2]
        counts, lens = lens.sum(axis=1), lens.ravel()
        pos = np.repeat(first.ravel() - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        sq = _sqdist([np.repeat(c, counts) for c in centres.T], [c[pos] for c in cols])
        keep = sq <= (np.repeat(within, counts) if np.ndim(within) else within)
        return np.repeat(np.arange(len(centres)), counts)[keep], pos[keep], sq[keep]


def _blocks(todo):
    """todo in consecutive pieces of at most KNN_BLOCK centres."""
    return (todo[lo : lo + KNN_BLOCK] for lo in range(0, len(todo), KNN_BLOCK))


def _knn_radii(grids, k):
    """Exact squared distance from each point to its k-th nearest in its own
    set, self the 0th: at the first level where more than k candidates lie
    within reach, every point that near is one, so the k-th of a row of them.
    Each level pairs its points KNN_BLOCK at a time, so the pairs and their
    table stay a block's size, however many points share a cell."""
    radii, todo, j = np.empty(len(grids.points)), np.arange(len(grids.points)), 0
    while len(todo):
        later = []
        for block in _blocks(todo):
            owner, _, sq = grids.pairs(j, grids.points[block], np.ldexp(grids.reach, 2 * j))
            counts = np.bincount(owner, minlength=len(block))
            table = np.full((len(block), max(counts.max(), k + 1)), np.inf)
            table[owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]] = sq
            radii[block] = np.partition(table, k, axis=1)[:, k]
            later.append(block[counts <= k])
        todo, j = np.concatenate(later), j + 1
    return radii


def _coverage(centres, radii, grids):
    """Fraction of the points of `grids` inside some centre's ball, pairing
    each centre at the first level whose reach its radius is within,
    KNN_BLOCK centres at a time."""
    covered, todo, j = np.zeros(len(grids.points), dtype=bool), np.arange(len(centres)), 0
    while len(todo):
        here = todo[radii[todo] <= np.ldexp(grids.reach, 2 * j)]
        for block in _blocks(here):
            _, pos, _ = grids.pairs(j, centres[block], radii[block])
            covered[grids.levels[j][0][pos]] = True
        todo, j = todo[radii[todo] > np.ldexp(grids.reach, 2 * j)], j + 1
    return float(covered.mean())


def precision_recall(gen, real, k: int = KNN_K) -> tuple[float, float]:
    """k-NN manifold precision and recall.

    A real point's manifold ball has radius equal to the distance to its k-th
    nearest other real point; precision is the fraction of generated points
    inside some real ball, recall the same with roles swapped.  Squared
    distances throughout, self excluded via the (k+1)-th order statistic.
    Grids of doubling cells find the candidates and exact squared distances,
    summed in cdist's order, decide: the all-pairs result, with no matrices.
    """
    gen = np.ascontiguousarray(np.atleast_2d(gen), dtype=np.float64)
    real = np.ascontiguousarray(np.atleast_2d(real), dtype=np.float64)
    if gen.shape[1] != real.shape[1]:
        raise InvalidArgumentError("sample sets have different dimensions")
    check_int("k", k)
    if k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    if k >= len(gen) or k >= len(real):
        raise InvalidArgumentError(
            f"k={k} needs both sets larger than k (got {len(gen)}, {len(real)})"
        )
    if not (np.isfinite(gen).all() and np.isfinite(real).all()):
        raise InvalidArgumentError("sample sets must be finite")
    grids_gen, grids_real = _Grids(gen), _Grids(real)
    precision = _coverage(real, _knn_radii(grids_real, k), grids_gen)
    return precision, _coverage(gen, _knn_radii(grids_gen, k), grids_real)


# ---------------------------------------------------------------------------
# Mode accounting


@dataclass(frozen=True)
class ModeStats:
    """Where a class's samples landed: low-tag components vs outliers."""

    n: int
    bad_fraction: float
    outlier_fraction: float


def assign_modes(spec, samples, class_id=None):
    """Hard component assignment: argmax responsibility under the clean
    mixture, or -1 when no component is within OUTLIER_MAHALANOBIS
    deviations.
    One evaluation at sigma = 0 gives both: there the quadratic form is the
    squared Mahalanobis distance.  The samples are evaluated MODE_BLOCK rows
    at a time, so the scratch does not grow with their number; the kernel is
    row-independent, so each block gives the bits of the whole set."""
    _, X = check_points(spec, samples, 0.0)
    assign = np.empty(len(X), dtype=np.intp)
    # an empty set is one empty block, so its class id is still checked
    for lo in range(0, max(len(X), 1), MODE_BLOCK):
        _, (_, r, _, m2) = _eval(spec, X[lo : lo + MODE_BLOCK], 0.0, class_id)
        idx = r.argmax(axis=1)
        assign[lo : lo + len(idx)] = np.where(m2.min(axis=1) > OUTLIER_MAHALANOBIS**2, -1, idx)
    return assign


def mode_stats(spec, samples, class_id=None) -> ModeStats:
    """Fractions of samples in a component tagged below T_LOW and outside
    every component."""
    assign = assign_modes(spec, samples, class_id)
    tags = spec.mixture(class_id)[2]
    in_mode = assign >= 0
    bad = in_mode & (tags[np.where(in_mode, assign, 0)] < T_LOW)
    return ModeStats(
        n=len(assign),
        bad_fraction=float(bad.mean()),
        outlier_fraction=float((~in_mode).mean()),
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class ClassQualityReport:
    class_id: int
    n: int
    mean_score: float
    p10: float
    p50: float
    p90: float
    tier: str


@dataclass(frozen=True)
class EvalReport:
    mean_score: float
    frechet: float
    frechet_regularized: bool
    per_class_frechet: dict
    precision: float
    recall: float
    class_reports: tuple
    bad_mode_fraction: float
    outlier_fraction: float

    def to_dict(self) -> dict:
        return {
            "mean_score": self.mean_score,
            "frechet": self.frechet,
            "frechet_regularized": self.frechet_regularized,
            "per_class_frechet": {str(k): v for k, v in self.per_class_frechet.items()},
            "precision": self.precision,
            "recall": self.recall,
            "bad_mode_fraction": self.bad_mode_fraction,
            "outlier_fraction": self.outlier_fraction,
            "classes": [vars(c) for c in self.class_reports],
        }


def tier_for(mean_score: float) -> str:
    if mean_score < T_LOW:
        return "low"
    if mean_score > T_HIGH:
        return "top"
    return "middle"


def _thin(x, cap):
    if len(x) <= cap:
        return x
    idx = np.linspace(0, len(x) - 1, cap).round().astype(int)
    return x[idx]


def evaluate(
    samples_by_class: dict, reference_by_class: dict, scores_by_class: dict, spec: GmmSpec
) -> EvalReport:
    """Report on per-class sample sets, their scores and references.

    Keys of the three dicts must match, and each class's scores hold one
    value per sample, shape (n,).  Precision/recall pools the classes and
    thins deterministically to KNN_MAX points per side, which keeps its
    numbers comparable with earlier runs (the k-NN radii shrink as sets
    grow); mode statistics under `spec` are pooled over classes as well.
    """
    if not set(samples_by_class) == set(reference_by_class) == set(scores_by_class):
        raise InvalidArgumentError("sample, reference and score class sets differ")
    if not samples_by_class:
        raise InvalidArgumentError("no classes to evaluate")

    class_reports = []
    per_class_frechet = {}
    all_scores = []
    bad_n = 0
    out_n = 0
    total = 0
    for cid in sorted(samples_by_class):
        x = np.atleast_2d(np.asarray(samples_by_class[cid], dtype=np.float64))
        ref = np.atleast_2d(np.asarray(reference_by_class[cid], dtype=np.float64))
        scores = np.asarray(scores_by_class[cid], dtype=np.float64)
        if scores.shape != (len(x),):
            raise InvalidArgumentError(
                f"class {cid} scores must have shape ({len(x)},), got {scores.shape}"
            )
        all_scores.append(scores)
        mean = float(scores.mean())
        class_reports.append(
            ClassQualityReport(
                class_id=cid,
                n=len(x),
                mean_score=mean,
                p10=float(np.percentile(scores, 10)),
                p50=float(np.percentile(scores, 50)),
                p90=float(np.percentile(scores, 90)),
                tier=tier_for(mean),
            )
        )
        per_class_frechet[cid] = frechet_distance(x, ref)
        ms = mode_stats(spec, x, cid)
        bad_n += ms.bad_fraction * ms.n
        out_n += ms.outlier_fraction * ms.n
        total += ms.n

    pooled = np.concatenate([np.atleast_2d(samples_by_class[c]) for c in sorted(samples_by_class)])
    pooled_ref = np.concatenate([np.atleast_2d(reference_by_class[c]) for c in sorted(reference_by_class)])
    frechet, reg = frechet_with_flag(pooled, pooled_ref)
    precision, recall = precision_recall(_thin(pooled, KNN_MAX), _thin(pooled_ref, KNN_MAX))
    scores = np.concatenate(all_scores)
    return EvalReport(
        mean_score=float(scores.mean()),
        frechet=frechet,
        frechet_regularized=reg,
        per_class_frechet=per_class_frechet,
        precision=precision,
        recall=recall,
        class_reports=tuple(class_reports),
        bad_mode_fraction=bad_n / total,
        outlier_fraction=out_n / total,
    )


def class_report_csv(report: EvalReport) -> str:
    """One row per class plus a pooled "all" row; deterministic formatting."""
    lines = ["class,n,mean_score,p10,p50,p90,tier"]
    for c in report.class_reports:
        lines.append(
            f"{c.class_id},{c.n},{c.mean_score:.9g},{c.p10:.9g},{c.p50:.9g},{c.p90:.9g},{c.tier}"
        )
    n_all = sum(c.n for c in report.class_reports)
    lines.append(
        f"all,{n_all},{report.mean_score:.9g},,,,{tier_for(report.mean_score)}"
    )
    return "\n".join(lines) + "\n"


def render_report(report: EvalReport) -> str:
    """Human-readable run summary for the CLI."""
    out = [
        f"mean quality score : {report.mean_score:.4f}",
        f"frechet (pooled)   : {report.frechet:.6f}"
        + ("  [regularized]" if report.frechet_regularized else ""),
        f"precision / recall : {report.precision:.3f} / {report.recall:.3f}",
        f"bad-mode fraction  : {report.bad_mode_fraction:.4f}",
        f"outlier fraction   : {report.outlier_fraction:.4f}",
    ]
    for c in report.class_reports:
        out.append(
            f"  class {c.class_id}: n={c.n} mean={c.mean_score:.3f} "
            f"p10={c.p10:.3f} p90={c.p90:.3f} tier={c.tier}"
        )
    return "\n".join(out) + "\n"
