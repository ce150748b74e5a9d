"""Probability-flow ODE integration over pluggable denoiser sources.

The generative dynamics dx/dsigma = -sigma * score(x; sigma) are integrated
from sigma_max down to 0.  The integrator consumes denoiser outputs, never raw
scores: with score = (D - x)/sigma^2 the right-hand side is (x - D)/sigma, so
guided composites (which are denoiser-space combinations) plug in uniformly.

Trajectories are processed in lockstep chunks of fixed width.  Per-trajectory
seeds derive from (base_seed, class, index), initial noise is drawn from each
trajectory's own stream, and chunk boundaries depend only on position, so
results are independent of worker count.  Chunk results are bit-reproducible
because every kernel computes row i from row i's data alone: the mixture
kernel uses elementwise broadcasts and reductions along each row only (never
batched matmul, and never a sum over the rows of a (K, n) array, whose order
numpy changes when n = 1).  The analytic source evaluates every component it
needs once for the whole chunk, then gathers for each row its own class's
columns (and the marginal's) into C-ordered (n, K) arrays, one reduction per
component count, so each row's sums run over the same terms in the same
order as a per-class evaluation of that row.  The MLP's BLAS matmul
accumulates each row alike for n >= 2, so the neural source pads single-row
evaluations to two rows to stay off the differently-accumulated matvec
path.  The neural source calls the MLP's inference forward
(`denoiser._denoise`), which keeps no activations and reuses two
hidden-layer buffers; it gives the same bits as the training forward that
backpropagation uses.  The test suite asserts cross-layout equality.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import LOG_2PI, gmm_reduce, gmm_terms
from .denoiser import MlpDenoiser, _denoise
from .errors import DegeneratePointError, DivergedError, InvalidArgumentError, NotFoundError
from .gmm import GmmSpec, check_points
from .guidance import StepContext
from .schedule import NoiseSchedule, Rng, derive_seed, new_trajectories

SAMPLER_METHODS = ("euler", "heun")

# lockstep width: large enough to keep kernels efficient, small enough that
# state arrays stay cheap; must not depend on batch size or worker count
CHUNK = 1024


@dataclass(frozen=True)
class SamplerConfig:
    schedule: NoiseSchedule
    method: str = "heun"
    record_outputs: bool = True

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise InvalidArgumentError(
                f"unknown method {self.method!r}; expected one of {SAMPLER_METHODS}"
            )


class ScoreSource:
    """Interface mapping a batch of states to denoiser outputs.

    evaluate(x, sigma_index, class_ids, ctx) returns D(x; sigma_k, c) with
    x of shape (n, d), sigma_index k indexing ctx.schedule.sigmas (always a
    nonzero level), class_ids either None (unconditional) or an (n,) int
    array.  evaluate_pair returns the conditional and the unconditional
    output at the same x and level, (evaluate(.., class_ids, ..),
    evaluate(.., None, ..)); the default makes those two calls, and a source
    that shares work between the branches overrides it with the same bits.
    Implementations must be pure given the context and safe for concurrent
    read-only use; bind(ctx) runs once per chunk before stepping.
    """

    dim: int

    def evaluate(self, x, sigma_index, class_ids, ctx):
        raise NotImplementedError

    def evaluate_pair(self, x, sigma_index, class_ids, ctx):
        return (
            self.evaluate(x, sigma_index, class_ids, ctx),
            self.evaluate(x, sigma_index, None, ctx),
        )

    def bind(self, ctx) -> None:
        pass

    def fingerprint(self) -> int:
        raise NotImplementedError


class AnalyticSource(ScoreSource):
    """Ideal denoiser of a known mixture (the oracle the MLP approximates).

    One evaluation makes one `gmm_terms` pass over the distinct components it
    needs (those of the classes present in the batch, plus the marginal's
    for the unconditional branch), then reduces it per mixture: each row over
    its own class's columns, and every row over the marginal's columns, with
    duplicates gathered, not merged.  Each output therefore carries the same
    bits as `ideal_denoiser` on that row's class (or on None).  Rows are
    reduced together per component count, never padded: zero terms past
    width 8 would change the grouping of numpy's pairwise sum.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim
        self._ids = np.array(spec.class_ids, dtype=np.int64)
        packs = [spec.pack(c) for c in spec.class_ids]
        self._width = np.array([len(p.cols) for p in packs])
        # one row per class; entries past a class's width repeat its first
        # column and are never reduced over
        self._cols = np.empty((len(packs), self._width.max()), dtype=np.intp)
        self._logw = np.full(self._cols.shape, -np.inf)
        for i, p in enumerate(packs):
            self._cols[i] = p.cols[0]
            self._cols[i, : len(p.cols)] = p.cols
            self._logw[i, : len(p.cols)] = p.logw
        self._marginal = spec.pack(None)

    def evaluate(self, x, sigma_index, class_ids, ctx):
        d1, d0 = self._denoise(x, ctx.schedule.sigmas[sigma_index], class_ids, class_ids is None)
        return d0 if class_ids is None else d1

    def evaluate_pair(self, x, sigma_index, class_ids, ctx):
        d1, d0 = self._denoise(x, ctx.schedule.sigmas[sigma_index], class_ids, True)
        return (d0, d0) if class_ids is None else (d1, d0)

    def _class_index(self, class_ids, n):
        ids = np.asarray(class_ids)
        if ids.shape != (n,):
            raise InvalidArgumentError(f"class_ids must have shape ({n},), got {ids.shape}")
        idx = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        unknown = self._ids[idx] != ids
        if unknown.any():
            raise NotFoundError(f"unknown class id {ids[unknown][0]!r}")
        return idx

    def _denoise(self, x, sigma, class_ids, marginal):
        """(d1, d0): the class-conditional output (None without class_ids)
        and, when marginal is set, the unconditional one (else None)."""
        sigma = float(sigma)
        if not sigma > 0:
            raise InvalidArgumentError(f"denoiser needs sigma > 0, got {sigma}")
        _, X = check_points(self.spec, x, sigma)
        n, d = X.shape
        need = [self._marginal.cols] if marginal else []
        if class_ids is not None:
            idx = self._class_index(class_ids, n)
            present = np.flatnonzero(np.bincount(idx, minlength=len(self._ids)))
            need.append(self._cols[present].ravel())
        cols = np.unique(np.concatenate(need))
        table = self.spec.table
        logdet, quad, _, pm = gmm_terms(
            X, table.means[cols], table.qmats[cols], table.lams[cols], sigma**2
        )
        # pos maps a table entry to its column in this pass
        pos = np.zeros(len(table.means), dtype=np.intp)
        pos[cols] = np.arange(len(cols))
        d1 = d0 = None
        if class_ids is not None:
            widths = np.unique(self._width[present])
            if len(widths) > 1:
                d1, logp = np.empty((n, d)), np.empty(n)
            for k in widths:
                rows = np.arange(n) if len(widths) == 1 else np.flatnonzero(self._width[idx] == k)
                # per class: its columns in this pass and its constant terms;
                # then per row, its class's, as flat indices into the pass
                ccols = pos[self._cols[:, :k]]
                cconst = self._logw[:, :k] - 0.5 * (d * LOG_2PI + logdet[ccols])
                cls = idx[rows]
                flat = ccols[cls] + rows[:, None] * len(cols)
                got = gmm_reduce(
                    cconst[cls], quad.ravel().take(flat), pm.reshape(-1, d).take(flat, axis=0)
                )
                if len(widths) == 1:
                    logp, _, d1 = got
                else:
                    logp[rows], _, d1[rows] = got
            _check_density(logp)
        if marginal:
            mc = pos[self._marginal.cols]
            const = self._marginal.logw[None, :] - 0.5 * (d * LOG_2PI + logdet[mc])[None, :]
            logp, _, d0 = gmm_reduce(const, np.take(quad, mc, axis=1), np.take(pm, mc, axis=1))
            _check_density(logp)
        return d1, d0

    def fingerprint(self) -> int:
        return self.spec.fingerprint()


def _check_density(logp):
    if not np.all(np.isfinite(logp)):
        raise DegeneratePointError("density underflowed to zero; denoiser undefined here")


class NeuralSource(ScoreSource):
    """Trained MLP denoiser as a score source."""

    def __init__(self, model: MlpDenoiser):
        self.model = model
        self.dim = model.dim

    def evaluate(self, x, sigma_index, class_ids, ctx):
        sigma = float(ctx.schedule.sigmas[sigma_index])
        n = len(x)
        tokens = (
            np.zeros(n, dtype=np.int64)
            if class_ids is None
            else np.asarray(class_ids, dtype=np.int64)
        )
        if n == 1:
            # duplicate the row: single-row matmuls take a different BLAS
            # path with different accumulation order
            x2 = np.concatenate([x, x])
            D = _denoise(self.model.params, x2, np.full(2, sigma), np.concatenate([tokens, tokens]))
            return D[:1]
        return _denoise(self.model.params, x, np.full(n, sigma), tokens)

    def fingerprint(self) -> int:
        return self.model.fingerprint()


def _integrate_chunk(source, cfg, seeds, class_ids, labels, record_outputs):
    """Lockstep-integrate one chunk; returns (states, outputs or None).

    labels carries (class_id, index) per trajectory purely for error
    reporting when a trajectory diverges.
    """
    sig = cfg.schedule.sigmas
    T = cfg.schedule.T
    d = source.dim
    m = len(seeds)
    x = np.stack([Rng(s).standard_normal(d) for s in seeds]) * sig[0]
    states = np.empty((m, T + 1, d))
    states[:, 0] = x
    outputs = np.empty((m, T, d)) if record_outputs else None

    ctx = StepContext(schedule=cfg.schedule, seeds=np.asarray(seeds, dtype=np.uint64), class_ids=class_ids)
    source.bind(ctx)

    def fail(arr, step):
        # first non-finite row, or the farthest-flung row if the denoiser
        # gave out (density underflow) before the state itself overflowed
        finite = np.isfinite(arr).all(axis=1)
        bad = int(np.argmin(finite)) if not finite.all() else int(np.abs(arr).max(axis=1).argmax())
        cid, idx = labels[bad]
        raise DivergedError(cid, idx, step)

    for k in range(T):
        ctx.step = k
        ctx.conditional_output = None
        try:
            dk = source.evaluate(x, k, class_ids, ctx)
        except DegeneratePointError:
            fail(x, k)
        if record_outputs:
            rec = ctx.conditional_output if ctx.conditional_output is not None else dk
            outputs[:, k] = rec
        h = sig[k + 1] - sig[k]
        rhs = (x - dk) / sig[k]
        x_next = x + h * rhs
        if cfg.method == "heun" and sig[k + 1] > 0:
            ctx.step = k + 1
            ctx.conditional_output = None
            try:
                d2 = source.evaluate(x_next, k + 1, class_ids, ctx)
            except DegeneratePointError:
                fail(x_next, k)
            rhs2 = (x_next - d2) / sig[k + 1]
            x_next = x + h * 0.5 * (rhs + rhs2)
        states[:, k + 1] = x_next
        if not np.all(np.isfinite(x_next)):
            fail(x_next, k)
        x = x_next
    return states, outputs


def sample_batch(
    source,
    cfg: SamplerConfig,
    base_seed: int,
    class_ids,
    n_per_class: int,
    workers: int | None = None,
) -> np.ndarray:
    """Sample n_per_class trajectories for each class (None = unconditional).

    Returns one `trajectory_dtype` record array in job order, class by class,
    with scores NaN and, unless cfg.record_outputs is off, the conditional
    denoiser outputs.  Each chunk's float64 result is rounded into its rows
    as soon as it is done.  Each trajectory's stream seed is
    derive_seed(base_seed, class, index) with the unconditional class folded
    in as -1, so any (base_seed, class, index) triple reproduces identically
    whatever else is in the batch and however many workers run.
    """
    if n_per_class < 1:
        raise InvalidArgumentError("n_per_class must be >= 1")
    if class_ids is None:
        class_ids = [None]
    if any(c is None for c in class_ids) and not all(c is None for c in class_ids):
        raise InvalidArgumentError("cannot mix conditional and unconditional trajectories")
    if any(c is not None and not 0 <= int(c) < 2**31 for c in class_ids):
        raise InvalidArgumentError("class ids must be None or in [0, 2**31): records store them as i4")
    labels = [(c, i) for c in class_ids for i in range(n_per_class)]
    keys = [-1 if c is None else int(c) for c, _ in labels]
    n = len(labels)
    batch = new_trajectories(n, cfg.schedule.T, source.dim, cfg.record_outputs)
    batch["class_id"] = keys
    batch["seed"] = np.array(
        [derive_seed(base_seed, k, i) for k, (_, i) in zip(keys, labels)], dtype=np.uint64
    )
    conditional = any(c is not None for c in class_ids)

    def run(lo):
        rows = batch[lo : lo + CHUNK]
        cls = rows["class_id"].astype(np.int64) if conditional else None
        states, outputs = _integrate_chunk(
            source, cfg, rows["seed"], cls, labels[lo : lo + CHUNK], cfg.record_outputs
        )
        rows["states"] = states
        if outputs is not None:
            rows["outputs"] = outputs

    starts = range(0, n, CHUNK)
    if workers is not None and workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return batch
