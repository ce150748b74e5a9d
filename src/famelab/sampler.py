"""Probability-flow ODE integration of guided denoiser outputs.

The generative dynamics dx/dsigma = -sigma * score(x; sigma) are integrated
from sigma_max down to 0.  The integrator consumes denoiser outputs, never raw
scores: with score = (D - x)/sigma^2 the right-hand side is (x - D)/sigma, so
guided composites (which are denoiser-space combinations) plug in uniformly.

The sampler talks to one guided source (`guidance.GuidedSource`) through two
calls: `bind(schedule, seeds, class_ids)` once per chunk, which returns the
pool record bound to each trajectory (or None), and `step(x, k, schedule,
class_ids, neg)` per evaluation, which returns the guided output the
integrator consumes and the conditional output it records.  The guided source
in turn asks its base source for `denoise(x, sigma, mixtures)`, one output
per mixture (an (n,) array of class ids, or None for the unconditional one,
which enters only as CFG's d0 term: every trajectory is sampled for a class).

Trajectories are processed in lockstep chunks of fixed width, one chunk after
another.  Per-trajectory seeds derive from (base_seed, class, index), initial
noise is each trajectory's own default_rng(seed) stream
(`schedule.initial_noise` computes the seed words for the whole chunk at
once), and chunk boundaries depend only on position, so a rerun splits a
batch the same way.  With the analytic
source a row's bits do not depend on its chunk either: the mixture kernel
holds its terms component-major, (K, n), and runs every step elementwise
across points, with sums over components as explicit sequences and only max
reduced along an axis.  The analytic source hands the whole chunk to
`GmmSpec.evaluate`, which evaluates every component it needs once and reduces
each row over its own mixture's, in the same order as a per-class evaluation
of that row.  The MLP is not row-independent: BLAS may accumulate a row's
matmul differently with the number of rows beside it, so a neural row's
float64 bits depend on its chunk.  The neural source calls the MLP's inference
forward (`denoiser._denoise`), which keeps no activations and reuses two
hidden-layer buffers; it gives the same bits as the training forward that
backpropagation uses.  The test suite asserts cross-layout equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import MlpDenoiser, _denoise
from .errors import DegeneratePointError, DivergedError, InvalidArgumentError, check_class_id
from .gmm import GmmSpec, check_points
from .schedule import NoiseSchedule, derive_seed, initial_noise, new_trajectories

SAMPLER_METHODS = ("euler", "heun")

# lockstep width: large enough to keep kernels efficient, small enough that
# state arrays stay cheap; must not depend on batch size
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


class AnalyticSource:
    """Ideal denoiser of a known mixture (the oracle the MLP approximates).

    Each call is one `GmmSpec.evaluate`: every requested mixture (an (n,)
    array of class ids, or None for the marginal) is reduced from one pass
    over the distinct components they need, and each output carries the
    bits of that row's mixture evaluated alone.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def denoise(self, x, sigma, mixtures):
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


class NeuralSource:
    """Trained MLP denoiser as a score source: one forward pass per mixture."""

    def __init__(self, model: MlpDenoiser):
        self.model = model
        self.dim = model.dim

    def denoise(self, x, sigma, mixtures):
        """D(x; sigma, c) for each mixture, an (n,) array of class tokens or
        None for the null token."""
        n = len(x)
        sig = np.full(n, float(sigma))
        out = []
        for m in mixtures:
            tokens = np.zeros(n, dtype=np.int64) if m is None else np.asarray(m, dtype=np.int64)
            out.append(_denoise(self.model.params, x, sig, tokens))
        return out

    def fingerprint(self) -> int:
        return self.model.fingerprint()


def _integrate_chunk(source, cfg, seeds, class_ids, index):
    """Lockstep-integrate one chunk through a guided source; returns
    (states, outputs or None), outputs being the conditional denoiser
    outputs `source.step` hands back with each guided one.

    index gives each trajectory's index within its class, which a
    DivergedError reports with its class id.
    """
    sched = cfg.schedule
    sig = sched.sigmas
    T = sched.T
    d = source.dim
    x = initial_noise(seeds, d) * sig[0]
    states = np.empty((len(x), T + 1, d))
    states[:, 0] = x
    outputs = np.empty((len(x), T, d)) if cfg.record_outputs else None
    neg = source.bind(sched, np.asarray(seeds, dtype=np.uint64), class_ids)

    def fail(arr, step):
        # first non-finite row, or the farthest-flung row if the denoiser
        # gave out (density underflow) before the state itself overflowed
        finite = np.isfinite(arr).all(axis=1)
        bad = int(np.argmin(finite)) if not finite.all() else int(np.abs(arr).max(axis=1).argmax())
        raise DivergedError(int(class_ids[bad]), int(index[bad]), step)

    def guided(x, j, k):
        # evaluated at level j; a failure is reported at step k
        try:
            return source.step(x, j, sched, class_ids, neg)
        except DegeneratePointError:
            fail(x, k)

    for k in range(T):
        dk, d1 = guided(x, k, k)
        if outputs is not None:
            outputs[:, k] = d1
        h = sig[k + 1] - sig[k]
        rhs = (x - dk) / sig[k]
        x_next = x + h * rhs
        if cfg.method == "heun" and sig[k + 1] > 0:
            d2, _ = guided(x_next, k + 1, k)
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
) -> np.ndarray:
    """Sample n_per_class trajectories for each class in class_ids (a
    sequence of class ids) through a guided source (`guidance.guided_source`).

    Returns one `trajectory_dtype` record array in job order, class by class,
    with scores NaN and, unless cfg.record_outputs is off, the conditional
    denoiser outputs.  Each chunk's float64 result is rounded into its rows
    as soon as it is done.  Each trajectory's stream seed is
    derive_seed(base_seed, class, index), so any (base_seed, class, index)
    triple reproduces identically whatever else is in the batch.
    """
    if n_per_class < 1:
        raise InvalidArgumentError("n_per_class must be >= 1")
    if np.ndim(class_ids) != 1:
        raise InvalidArgumentError(f"sample_batch needs a sequence of class ids, got {class_ids!r}")
    for c in class_ids:
        check_class_id(c)
    batch = new_trajectories(len(class_ids) * n_per_class, cfg.schedule.T, source.dim, cfg.record_outputs)
    batch["class_id"] = np.repeat([int(c) for c in class_ids], n_per_class)
    index = np.tile(np.arange(n_per_class), len(class_ids))
    batch["seed"] = derive_seed(base_seed, batch["class_id"], index)

    for lo in range(0, len(batch), CHUNK):
        rows = batch[lo : lo + CHUNK]
        states, outputs = _integrate_chunk(
            source, cfg, rows["seed"], rows["class_id"].astype(np.int64), index[lo : lo + CHUNK]
        )
        rows["states"] = states
        if outputs is not None:
            rows["outputs"] = outputs
        # free this chunk's float64 arrays before the next chunk allocates its own
        del states, outputs
    return batch
