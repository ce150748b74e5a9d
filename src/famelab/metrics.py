"""Sample-quality measurement.

Scorers map final samples to scalar quality; distribution fidelity is
measured by Frechet distance between gaussian moment fits, k-NN manifold
precision/recall, and KL divergence between a sample histogram and the
bin-integrated analytic density.  Mixture-aware helpers assign samples to
components so runs can report how much mass landed in low-quality modes.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from ._kernels import pairwise_sqdist
from .errors import InvalidArgumentError, ScorerFailedError
from .gmm import GmmSpec, mahalanobis_sq, noised_log_density, responsibilities

# Quality tiers: class means below T_LOW are reported "low", above T_HIGH
# "top", anything between lands in the inconsistent middle band.
T_LOW = 2.0
T_HIGH = 2.5

OUTLIER_MAHALANOBIS = 4.0


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
        return r @ self.spec.pack(class_id).tags


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
        lines = proc.stdout.split()
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


def precision_recall(gen, real, k: int = 3) -> tuple[float, float]:
    """k-NN manifold precision and recall.

    A real point's manifold ball has radius equal to the distance to its k-th
    nearest other real point; precision is the fraction of generated points
    inside some real ball, recall the same with roles swapped.  Squared
    distances throughout, self excluded via the (k+1)-th order statistic.
    """
    gen = np.ascontiguousarray(np.atleast_2d(gen), dtype=np.float64)
    real = np.ascontiguousarray(np.atleast_2d(real), dtype=np.float64)
    if gen.shape[1] != real.shape[1]:
        raise InvalidArgumentError("sample sets have different dimensions")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    if k >= len(gen) or k >= len(real):
        raise InvalidArgumentError(
            f"k={k} needs both sets larger than k (got {len(gen)}, {len(real)})"
        )
    d_rr = pairwise_sqdist(real, real)
    radii_real = np.partition(d_rr, k, axis=1)[:, k]
    d_gg = pairwise_sqdist(gen, gen)
    radii_gen = np.partition(d_gg, k, axis=1)[:, k]
    d_gr = pairwise_sqdist(gen, real)
    precision = float((d_gr <= radii_real[None, :]).any(axis=1).mean())
    recall = float((d_gr <= radii_gen[:, None]).any(axis=0).mean())
    return precision, recall


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


# ---------------------------------------------------------------------------
# Mode accounting


@dataclass(frozen=True)
class ModeStats:
    """Where a class's samples landed: low-tag components vs outliers."""

    n: int
    bad_fraction: float
    outlier_fraction: float


def assign_modes(spec, samples, class_id=None, max_mahalanobis=OUTLIER_MAHALANOBIS):
    """Hard component assignment: argmax responsibility under the clean
    mixture, or -1 when no component is within max_mahalanobis deviations."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    r = responsibilities(spec, samples, class_id, sigma=0.0)
    m2 = mahalanobis_sq(spec, samples, class_id)
    idx = r.argmax(axis=1)
    return np.where(m2.min(axis=1) > max_mahalanobis**2, -1, idx)


def mode_stats(
    spec,
    samples,
    class_id=None,
    tag_threshold=T_LOW,
    max_mahalanobis=OUTLIER_MAHALANOBIS,
) -> ModeStats:
    assign = assign_modes(spec, samples, class_id, max_mahalanobis)
    tags = spec.pack(class_id).tags
    in_mode = assign >= 0
    bad = in_mode & (tags[np.where(in_mode, assign, 0)] < tag_threshold)
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
    bad_mode_fraction: float | None
    outlier_fraction: float | None

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


def tier_for(mean_score: float, t_low: float = T_LOW, t_high: float = T_HIGH) -> str:
    if mean_score < t_low:
        return "low"
    if mean_score > t_high:
        return "top"
    return "middle"


def _thin(x, cap):
    if len(x) <= cap:
        return x
    idx = np.linspace(0, len(x) - 1, cap).round().astype(int)
    return x[idx]


def evaluate(
    samples_by_class: dict,
    reference_by_class: dict,
    scorer,
    spec=None,
    knn_k: int = 3,
    t_low: float = T_LOW,
    t_high: float = T_HIGH,
    max_mahalanobis: float = OUTLIER_MAHALANOBIS,
    knn_max: int = 2048,
) -> EvalReport:
    """Score and compare per-class sample sets against references.

    Keys of the two dicts must match.  Precision/recall pools the classes and
    thins deterministically to knn_max points per side to bound the O(n^2)
    distance matrices; when a mixture is supplied, mode statistics are pooled
    over classes as well.
    """
    if set(samples_by_class) != set(reference_by_class):
        raise InvalidArgumentError("sample and reference class sets differ")
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
        scores = np.asarray(scorer(x, cid), dtype=np.float64)
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
                tier=tier_for(mean, t_low, t_high),
            )
        )
        per_class_frechet[cid] = frechet_distance(x, ref)
        if spec is not None:
            ms = mode_stats(spec, x, cid, tag_threshold=t_low, max_mahalanobis=max_mahalanobis)
            bad_n += ms.bad_fraction * ms.n
            out_n += ms.outlier_fraction * ms.n
            total += ms.n

    pooled = np.concatenate([np.atleast_2d(samples_by_class[c]) for c in sorted(samples_by_class)])
    pooled_ref = np.concatenate([np.atleast_2d(reference_by_class[c]) for c in sorted(reference_by_class)])
    frechet, reg = frechet_with_flag(pooled, pooled_ref)
    precision, recall = precision_recall(
        _thin(pooled, knn_max), _thin(pooled_ref, knn_max), k=knn_k
    )
    scores = np.concatenate(all_scores)
    return EvalReport(
        mean_score=float(scores.mean()),
        frechet=frechet,
        frechet_regularized=reg,
        per_class_frechet=per_class_frechet,
        precision=precision,
        recall=recall,
        class_reports=tuple(class_reports),
        bad_mode_fraction=(bad_n / total) if spec is not None else None,
        outlier_fraction=(out_n / total) if spec is not None else None,
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
    ]
    if report.bad_mode_fraction is not None:
        out.append(f"bad-mode fraction  : {report.bad_mode_fraction:.4f}")
        out.append(f"outlier fraction   : {report.outlier_fraction:.4f}")
    for c in report.class_reports:
        out.append(
            f"  class {c.class_id}: n={c.n} mean={c.mean_score:.3f} "
            f"p10={c.p10:.3f} p90={c.p90:.3f} tier={c.tier}"
        )
    return "\n".join(out) + "\n"
