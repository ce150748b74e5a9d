"""Probability-flow ODE integration over pluggable denoiser sources.

The generative dynamics dx/dsigma = -sigma * score(x; sigma) are integrated
from sigma_max down to 0.  The integrator consumes denoiser outputs, never raw
scores: with score = (D - x)/sigma^2 the right-hand side is (x - D)/sigma, so
guided composites (which are denoiser-space combinations) plug in uniformly.

Trajectories are processed in lockstep chunks of fixed width.  Per-trajectory
seeds derive from (base_seed, class, index), initial noise is drawn from each
trajectory's own stream, and chunk boundaries depend only on position, so
results are independent of worker count.  Chunk results are bit-reproducible
because every kernel (numba, numpy einsum, BLAS matmul with n >= 2 rows)
computes row i from row i's data alone; the neural source pads single-row
evaluations to two rows to stay off the differently-accumulated matvec path,
and the test suite asserts cross-layout equality.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .denoiser import MlpDenoiser, _apply
from .errors import DegeneratePointError, DivergedError, InvalidArgumentError
from .gmm import GmmSpec, ideal_denoiser
from .guidance import StepContext
from .schedule import NoiseSchedule, Rng, TrajectoryRecord, derive_seed

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
    array.  Implementations must be pure given the context and safe for
    concurrent read-only use; bind(ctx) runs once per chunk before stepping.
    """

    dim: int

    def evaluate(self, x, sigma_index, class_ids, ctx):
        raise NotImplementedError

    def bind(self, ctx) -> None:
        pass

    def fingerprint(self) -> int:
        raise NotImplementedError


class AnalyticSource(ScoreSource):
    """Ideal denoiser of a known mixture (the oracle the MLP approximates)."""

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def evaluate(self, x, sigma_index, class_ids, ctx):
        sigma = float(ctx.schedule.sigmas[sigma_index])
        if class_ids is None:
            return ideal_denoiser(self.spec, x, sigma, None)
        out = np.empty_like(x)
        for c in np.unique(class_ids):
            rows = class_ids == c
            out[rows] = ideal_denoiser(self.spec, x[rows], sigma, int(c))
        return out

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
            D, _ = _apply(self.model.params, x2, np.full(2, sigma), np.concatenate([tokens, tokens]))
            return D[:1]
        D, _ = _apply(self.model.params, x, np.full(n, sigma), tokens)
        return D

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


def sample_one(source, cfg: SamplerConfig, rng: Rng, class_id=None) -> TrajectoryRecord:
    """Integrate a single trajectory from the given stream's seed."""
    class_arr = None if class_id is None else np.array([class_id], dtype=np.int64)
    states, outputs = _integrate_chunk(
        source,
        cfg,
        [rng.seed],
        class_arr,
        [(class_id, 0)],
        cfg.record_outputs,
    )
    return TrajectoryRecord.create(
        rng.seed, class_id, states[0], outputs[0] if outputs is not None else None
    )


def sample_batch(
    source,
    cfg: SamplerConfig,
    base_seed: int,
    class_ids,
    n_per_class: int,
    workers: int | None = None,
) -> list:
    """Sample n_per_class trajectories for each class (None = unconditional).

    Each trajectory's stream seed is derive_seed(base_seed, class, index)
    with the unconditional class folded in as -1, so any (base_seed, class,
    index) triple reproduces identically whatever else is in the batch and
    however many workers run.
    """
    if n_per_class < 1:
        raise InvalidArgumentError("n_per_class must be >= 1")
    if class_ids is None:
        class_ids = [None]
    if any(c is None for c in class_ids) and not all(c is None for c in class_ids):
        raise InvalidArgumentError("cannot mix conditional and unconditional trajectories")
    jobs = []
    for c in class_ids:
        key = -1 if c is None else int(c)
        for i in range(n_per_class):
            jobs.append((derive_seed(base_seed, key, i), c, i))

    chunks = [jobs[i : i + CHUNK] for i in range(0, len(jobs), CHUNK)]

    def run(chunk):
        seeds = [j[0] for j in chunk]
        cls = [j[1] for j in chunk]
        class_arr = (
            None
            if all(c is None for c in cls)
            else np.array([(-1 if c is None else c) for c in cls], dtype=np.int64)
        )
        labels = [(j[1], j[2]) for j in chunk]
        return _integrate_chunk(source, cfg, seeds, class_arr, labels, cfg.record_outputs)

    if workers is not None and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]

    records = []
    for chunk, (states, outputs) in zip(chunks, results):
        for row, (seed, c, _i) in enumerate(chunk):
            records.append(
                TrajectoryRecord.create(
                    seed, c, states[row], outputs[row] if outputs is not None else None
                )
            )
    return records
