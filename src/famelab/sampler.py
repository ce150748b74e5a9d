"""Probability-flow ODE integration of guided denoiser outputs.

The generative dynamics dx/dsigma = -sigma * score(x; sigma) are integrated
from sigma_max down to 0.  The integrator consumes denoiser outputs, never raw
scores: with score = (D - x)/sigma^2 the right-hand side is (x - D)/sigma, so
guided composites (which are denoiser-space combinations) plug in uniformly.

The sampler talks to a guided source (`guidance.GuidedSource`) through two
calls: `bind(schedule, seeds, class_ids)` once per chunk, which returns the
pool record bound to each trajectory (or None), and `step(x, k, schedule,
class_ids, neg, scratch)` per evaluation, which returns the guided output
the integrator consumes and the conditional output it records.  The guided
source in turn asks its base source for `denoise(x, sigma, mixtures,
scratch=None)`, one output per mixture (an (n,) array of class ids, or None
for the unconditional one, which enters only as CFG's d0 term: every
trajectory is sampled for a class).  scratch is a dict `_integrate_chunk`
makes for one chunk segment and passes to every step of it: a base source
may keep work buffers there across the segment's calls (the neural source
keeps its two hidden-layer buffers), and they are freed with the segment,
not kept by the source.  The analytic source ignores it.

`sample_batches` samples the same trajectories through several guided
sources over one base, as the rows of a sweep or the sides of a paired
compare do.  Their states agree up to the fork: the first step at which
`guidance.weights` weighs two sources' terms differently or any row
replays.  Replay is 0 before the last tau of normalised time, so an f sweep
shares every step before the replay window.  Those steps are integrated
once per chunk, through the first source and with no pool bound; each
source then binds its own pool records and resumes from the float64 state
at the fork, and its batch is handed over before the next one is made.
`sample_batch` is the one-source case: a lone source that replays runs
each chunk to its fork and then on from there.

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
forward (`denoiser._denoise`), which keeps no activations and runs its
hidden layers in the segment's two scratch buffers; it gives the same bits
as the training forward that backpropagation uses.  The test suite asserts
cross-layout equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import MlpDenoiser, _denoise
from .errors import (
    DegeneratePointError, DivergedError, FamelabError, InvalidArgumentError, check_class_id, check_int
)
from .gmm import GmmSpec, check_points
from .guidance import weights
from .schedule import NoiseSchedule, derive_seed, initial_noise, new_trajectories

SAMPLER_METHODS = ("euler", "heun")

# lockstep width: large enough to keep kernels efficient, small enough that
# state arrays stay cheap; must not depend on batch size
CHUNK = 1024


def check_method(method) -> None:
    """Raise InvalidArgumentError unless method is one of SAMPLER_METHODS."""
    if method not in SAMPLER_METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}; expected one of {SAMPLER_METHODS}")


@dataclass(frozen=True)
class SamplerConfig:
    schedule: NoiseSchedule
    method: str = "heun"
    record_outputs: bool = True

    def __post_init__(self):
        check_method(self.method)


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

    def denoise(self, x, sigma, mixtures, scratch=None):
        """The posterior mean under each of `GmmSpec.evaluate`'s mixtures;
        scratch is not used."""
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

    def denoise(self, x, sigma, mixtures, scratch=None):
        """D(x; sigma, c) for each mixture, an (n,) array of class tokens or
        None for the null token; every pass runs its hidden layers in the
        buffers of scratch (a dict), made there on first use."""
        n = len(x)
        sig = np.full(n, float(sigma))
        out = []
        for m in mixtures:
            tokens = np.zeros(n, dtype=np.int64) if m is None else np.asarray(m, dtype=np.int64)
            out.append(_denoise(self.model.params, x, sig, tokens, scratch))
        return out

    def fingerprint(self) -> int:
        return self.model.fingerprint()


def _integrate_chunk(source, cfg, x, neg, class_ids, index, start, stop):
    """Lockstep-integrate steps start..stop-1 of one chunk through a guided
    source, from the float64 states x at level start; neg is what
    `source.bind` returned for these trajectories.  Returns (states, outputs
    or None): the states at levels start..stop, x first, and the conditional
    denoiser outputs `source.step` hands back with each guided one at steps
    start..stop-1.  Every step gets the same new scratch dict, which is
    dropped on return.

    index gives each trajectory's index within its class, which a
    DivergedError reports with its class id.
    """
    sched = cfg.schedule
    sig = sched.sigmas
    n, d = x.shape
    states = np.empty((n, stop - start + 1, d))
    states[:, 0] = x
    outputs = np.empty((n, stop - start, d)) if cfg.record_outputs else None
    scratch = {}

    def fail(arr, step):
        # first non-finite row, or the farthest-flung row if the denoiser
        # gave out (density underflow) before the state itself overflowed
        finite = np.isfinite(arr).all(axis=1)
        bad = int(np.argmin(finite)) if not finite.all() else int(np.abs(arr).max(axis=1).argmax())
        raise DivergedError(int(class_ids[bad]), int(index[bad]), step)

    def guided(x, j, k):
        # evaluated at level j; a failure is reported at step k
        try:
            return source.step(x, j, sched, class_ids, neg, scratch)
        except DegeneratePointError:
            fail(x, k)

    for k in range(start, stop):
        dk, d1 = guided(x, k, k)
        if outputs is not None:
            outputs[:, k - start] = d1
        h = sig[k + 1] - sig[k]
        rhs = (x - dk) / sig[k]
        x_next = x + h * rhs
        if len(_levels(cfg, k)) == 2:
            d2, _ = guided(x_next, k + 1, k)
            rhs2 = (x_next - d2) / sig[k + 1]
            x_next = x + h * 0.5 * (rhs + rhs2)
        states[:, k + 1 - start] = x_next
        if not np.all(np.isfinite(x_next)):
            fail(x_next, k)
        x = x_next
    return states, outputs


def _levels(cfg, k):
    """The levels step k evaluates: k, and with Heun also k + 1 unless sigma
    is 0 there."""
    if cfg.method == "heun" and cfg.schedule.sigmas[k + 1] > 0:
        return (k, k + 1)
    return (k,)


def _fork(sources, cfg):
    """The first step at which a level it evaluates gives two sources
    different weights, or any source a replay weight (T if none does): the
    steps before it are the same for every source and replay nothing."""
    T = cfg.schedule.T
    for k in range(T):
        for j in _levels(cfg, k):
            first, *rest = (weights(s.cfg, j, T) for s in sources)
            if first[2] != 0.0 or any(a != first for a in rest):
                return k
    return T


def sample_batches(sources, cfg: SamplerConfig, base_seed: int, class_ids, n_per_class: int):
    """Sample the same trajectories through each of several guided sources
    over one base; yields, source by source, the batch `sample_batch` would
    return for it, or the FamelabError it would raise.

    The steps before the fork (`_fork`) are the same for every source and
    replay nothing: they are integrated once per chunk, through the first
    source, without binding a pool.  Only their float32 rows and each
    chunk's float64 state at the fork are kept; each source then binds its
    own pool records and resumes from the fork, one batch at a time, so a
    sweep holds one batch and the shared rows at once.  A lone source's
    shared steps go straight into its own batch.  Arguments are checked on
    the call, the sampling runs as batches are taken.
    """
    sources = list(sources)
    if not sources:
        raise InvalidArgumentError("sample_batches needs at least one source")
    if any(s.base is not sources[0].base for s in sources):
        raise InvalidArgumentError("sources sampled together must share one base")
    check_int("base_seed", base_seed)
    check_int("n_per_class", n_per_class)
    if n_per_class < 1:
        raise InvalidArgumentError("n_per_class must be >= 1")
    if np.ndim(class_ids) != 1:
        raise InvalidArgumentError(f"class_ids must be a sequence of class ids, got {class_ids!r}")
    for c in class_ids:
        check_class_id(c)
    if len(set(class_ids)) != len(class_ids):
        raise InvalidArgumentError(f"class ids must not repeat, got {list(class_ids)!r}")
    classes = np.repeat(np.array(class_ids, dtype=np.int64), n_per_class)
    index = np.tile(np.arange(n_per_class), len(class_ids))
    seeds = derive_seed(base_seed, classes, index)
    return _sample_rows(sources, cfg, seeds, classes, index, _fork(sources, cfg))


def _sample_rows(sources, cfg, seeds, classes, index, fork):
    """sample_batches' generator, given the jobs and the fork.  Each batch
    is made and handed over inside one call, so no local of the suspended
    generator holds it while the caller uses it."""
    sched = cfg.schedule
    T, d, n = sched.T, sources[0].dim, len(seeds)
    chunks = [slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK)]

    def new_batch():
        batch = new_trajectories(n, T, d, cfg.record_outputs)
        batch["class_id"] = classes
        batch["seed"] = seeds
        return batch

    def shared(into_states, into_outputs):
        """Integrate each chunk's shared steps through the first source,
        rounding levels 0..fork into into_states and steps 0..fork-1 into
        into_outputs (None when not recorded).  Returns per chunk the float64
        state at the fork; a failure takes its chunk's place and ends them."""
        forks = []
        for rows in chunks:
            try:
                x = initial_noise(seeds[rows], d) * sched.sigmas[0]
                states, outputs = _integrate_chunk(
                    sources[0], cfg, x, None, classes[rows], index[rows], 0, fork
                )
            except FamelabError as exc:
                forks.append(exc)
                break
            into_states[rows] = states
            if outputs is not None:
                into_outputs[rows] = outputs
            forks.append(states[:, -1].copy())
            # free this chunk's float64 arrays before the next chunk allocates its own
            del states, outputs
        return forks

    def resume(source, out, forks):
        """out, which holds the shared steps, integrated through the source
        from the fork to the end, or the first FamelabError sampling it alone
        raises: each chunk binds the source's pool records first, and a chunk
        whose shared steps failed then raises their failure."""
        try:
            for rows, x in zip(chunks, forks):
                neg = source.bind(sched, seeds[rows], classes[rows])
                if isinstance(x, FamelabError):
                    raise x
                states, outputs = _integrate_chunk(source, cfg, x, neg, classes[rows], index[rows], fork, T)
                out["states"][rows, fork:] = states
                if outputs is not None:
                    out["outputs"][rows, fork:] = outputs
                del states, outputs
        except FamelabError as exc:
            return exc
        return out

    def alone(source):
        # a lone source's shared steps go straight into its own batch
        out = new_batch()
        head_outputs = out["outputs"][:, :fork] if cfg.record_outputs else None
        return resume(source, out, shared(out["states"][:, : fork + 1], head_outputs))

    if len(sources) == 1:
        yield alone(sources[0])
        return

    # levels 0..fork and steps 0..fork-1, kept for every source to copy
    head_states = np.empty((n, fork + 1, d), np.float32)
    head_outputs = np.empty((n, fork, d), np.float32) if cfg.record_outputs else None
    forks = shared(head_states, head_outputs)

    def with_head():
        out = new_batch()
        out["states"][:, : fork + 1] = head_states
        if head_outputs is not None:
            out["outputs"][:, :fork] = head_outputs
        return out

    for source in sources:
        yield resume(source, with_head(), forks)


def sample_batch(
    source,
    cfg: SamplerConfig,
    base_seed: int,
    class_ids,
    n_per_class: int,
) -> np.ndarray:
    """Sample n_per_class trajectories for each class in class_ids (a
    sequence of distinct class ids) through a guided source
    (`guidance.guided_source`).

    Returns one `trajectory_dtype` record array in job order, class by class,
    with scores NaN and, unless cfg.record_outputs is off, the conditional
    denoiser outputs.  Each chunk's float64 result is rounded into its rows
    as soon as it is done.  Each trajectory's stream seed is
    derive_seed(base_seed, class, index), so any (base_seed, class, index)
    triple reproduces identically whatever else is in the batch.
    """
    [batch] = sample_batches([source], cfg, base_seed, class_ids, n_per_class)
    if isinstance(batch, FamelabError):
        raise batch
    return batch
