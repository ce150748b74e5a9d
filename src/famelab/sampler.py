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
numpy changes when n = 1).  The analytic source hands the whole chunk to
`GmmSpec.evaluate`, which evaluates every component it needs once and
reduces each row over its own mixture's columns, so each row's sums run
over the same terms in the same order as a per-class evaluation of that
row.  The MLP's BLAS matmul accumulates each row alike for n >= 2, so the
neural source pads single-row evaluations to two rows to stay off the
differently-accumulated matvec path.  The neural source calls the MLP's
inference forward (`denoiser._denoise`), which keeps no activations and
reuses two hidden-layer buffers; it gives the same bits as the training
forward that backpropagation uses.  The test suite asserts cross-layout
equality.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .denoiser import MlpDenoiser, _denoise
from .errors import DegeneratePointError, DivergedError, InvalidArgumentError
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

    Each call is one `GmmSpec.evaluate`: the conditional branch reduces each
    row over its own class's mixture, and the unconditional branch every
    row over the marginal, from one pass over the distinct components both
    need.  Each output carries the bits of that row's mixture evaluated
    alone.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def evaluate(self, x, sigma_index, class_ids, ctx):
        [d] = self._denoise(x, ctx.schedule.sigmas[sigma_index], [class_ids])
        return d

    def evaluate_pair(self, x, sigma_index, class_ids, ctx):
        if class_ids is None:
            [d0] = self._denoise(x, ctx.schedule.sigmas[sigma_index], [None])
            return d0, d0
        d1, d0 = self._denoise(x, ctx.schedule.sigmas[sigma_index], [class_ids, None])
        return d1, d0

    def _denoise(self, x, sigma, mixtures):
        """The posterior mean under each of `GmmSpec.evaluate`'s mixtures."""
        sigma = float(sigma)
        if not sigma > 0:
            raise InvalidArgumentError(f"denoiser needs sigma > 0, got {sigma}")
        _, X = check_points(self.spec, x, sigma)
        got = self.spec.evaluate(X, sigma, mixtures)
        if not all(np.isfinite(logp).all() for logp, *_ in got):
            raise DegeneratePointError("density underflowed to zero; denoiser undefined here")
        return [denoise for _, _, denoise, _ in got]

    def fingerprint(self) -> int:
        return self.spec.fingerprint()


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
