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
may keep work buffers there across the segment's calls, and they are freed
with the segment, not kept by the source.  The neural source keeps its two
hidden-layer buffers there; the analytic source keeps `GmmSpec.evaluate`'s
plan of each mixture list, built on the first step and reused while n and
the class ids stay the same, so its steps redo no index work.

`sample_finals` samples the same trajectories through several guided
sources over one base, as the rows of a sweep or the sides of a paired
compare do, and keeps only each source's final states.  Their states agree
up to the fork: the first step at which `guidance.weights` weighs two
sources' terms differently or any row replays.  Replay is 0 before the
last tau of normalised time, so an f sweep shares every step before the
replay window.  `sample_batch` is the one-source case and keeps every
level with the conditional output recorded there, the record a pool
replays.  Both run one chunk loop: a chunk's shared steps are integrated
once, through the first source and with no pool bound, and each source
then binds its own pool records and resumes from the float64 state at the
fork.  The integrator keeps only the current state and writes each step
where its caller keeps it, if anywhere: into a chunk's record rows, which
`sample_batch` keeps in its batch and `pipeline.Experiment.sample` in one
chunk-sized buffer that it writes out as each chunk ends (`_record_chunks`).

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
`GmmSpec.evaluate`, which reduces each row over its own mixture's components,
in the same order as a per-class evaluation of that row: a conditional-only
step evaluates only those, and a step with the marginal evaluates the whole
component table once for every mixture of the call.  The MLP is not
row-independent: BLAS may accumulate a row's matmul differently with the
number of rows beside it, so a neural row's float64 bits depend on its
chunk.  The neural source calls the MLP's inference
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
    # only True: every record carries outputs; perfbench/worker.py passes it (ROADMAP item 1)
    record_outputs: bool = True

    def __post_init__(self):
        check_method(self.method)
        if self.record_outputs is not True:
            raise InvalidArgumentError("record_outputs accepts only True")


class AnalyticSource:
    """Ideal denoiser of a known mixture (the oracle the MLP approximates).

    Each call is one `GmmSpec.evaluate`: every requested mixture (an (n,)
    array of class ids, or None for the marginal) is reduced over each
    row's own components, from a pass over those alone or, when the marginal
    is asked for, from one pass over the whole component table, and each
    output carries the bits of that row's mixture evaluated alone.
    """

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self.dim = spec.dim

    def denoise(self, x, sigma, mixtures, scratch=None):
        """The posterior mean under each of `GmmSpec.evaluate`'s mixtures;
        scratch goes to `evaluate`, which keeps its plan of each item list
        there."""
        sigma = float(sigma)
        if not sigma > 0:
            raise InvalidArgumentError(f"denoiser needs sigma > 0, got {sigma}")
        _, X = check_points(self.spec, x, sigma)
        got = self.spec.evaluate(X, sigma, mixtures, scratch)
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


def _integrate_chunk(source, cfg, x, neg, class_ids, index, start, stop, record=None):
    """Lockstep-integrate steps start..stop-1 of one chunk through a guided
    source, from the float64 states x at level start; neg is what
    `source.bind` returned for these trajectories.  Returns the float64
    states at level stop.  Each state from x on, and the conditional output
    `source.step` hands back with each guided one, is written as it is made
    into record, if given: a (states, outputs) pair of arrays whose columns
    are the levels and steps from start on.  Every step gets the same new
    scratch dict, which is dropped on return.

    index gives each trajectory's index within its class, which a
    DivergedError reports with its class id.
    """
    sched = cfg.schedule
    sig = sched.sigmas
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

    if record is not None:
        record[0][:, 0] = x
    for k in range(start, stop):
        dk, d1 = guided(x, k, k)
        h = sig[k + 1] - sig[k]
        rhs = (x - dk) / sig[k]
        x_next = x + h * rhs
        # a predictor that is not finite fails the step, not the corrector
        if len(_levels(cfg, k)) == 2 and np.all(np.isfinite(x_next)):
            d2, _ = guided(x_next, k + 1, k)
            rhs2 = (x_next - d2) / sig[k + 1]
            x_next = x + h * 0.5 * (rhs + rhs2)
        if not np.all(np.isfinite(x_next)):
            fail(x_next, k)
        if record is not None:
            record[0][:, k + 1 - start] = x_next
            record[1][:, k - start] = d1
        x = x_next
    return x


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


def _jobs(sources, base_seed, class_ids, n_per_class):
    """Check a sampling call's arguments; returns its trajectories' (seeds,
    class ids, index within class) in job order, class by class."""
    if not sources:
        raise InvalidArgumentError("sampling needs at least one source")
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
    return derive_seed(base_seed, classes, index), classes, index


def _sample(sources, cfg, seeds, classes, index, batch=None):
    """Integrate the trajectories through each guided source, chunk by
    chunk.  A chunk's steps before the fork (`_fork`) are integrated once,
    through the first source with no pool bound; each live source then
    binds its pool records and resumes from the float64 state at the fork.
    Every step goes into batch's rows if a batch is given (for one source).
    Returns, for each source, its float32-rounded final states as an (n, d)
    float64 array in job order, or the first FamelabError it would raise if
    sampled alone: a chunk binds the source's pool first, and a chunk whose
    shared steps failed then raises their failure."""
    sched, T = cfg.schedule, cfg.schedule.T
    fork = _fork(sources, cfg)
    finals = [np.empty((len(seeds), sources[0].dim)) for _ in sources]
    errors = [None] * len(sources)

    def record(rows, start, stop):
        # batch's levels start..stop and steps start..stop-1 of these rows
        if batch is not None:
            return batch["states"][rows, start : stop + 1], batch["outputs"][rows, start:stop]

    for lo in range(0, len(seeds), CHUNK):
        live = [i for i, err in enumerate(errors) if err is None]
        if not live:
            break
        rows = slice(lo, lo + CHUNK)
        job = classes[rows], index[rows]
        try:
            x = initial_noise(seeds[rows], sources[0].dim) * sched.sigmas[0]
            x = _integrate_chunk(sources[0], cfg, x, None, *job, 0, fork, record(rows, 0, fork))
        except FamelabError as exc:
            x = exc
        for i in live:
            try:
                neg = sources[i].bind(sched, seeds[rows], classes[rows])
                if isinstance(x, FamelabError):
                    raise x
                x_T = _integrate_chunk(sources[i], cfg, x, neg, *job, fork, T, record(rows, fork, T))
                finals[i][rows] = x_T.astype(np.float32)
            except FamelabError as exc:
                errors[i] = exc
    return [err if err is not None else out for out, err in zip(finals, errors)]


def _record_chunks(source, cfg, seeds, classes, index, batch=None):
    """Sample the trajectories of one guided source as records, chunk by
    chunk, and yield each chunk's records (the rows of job order it covers)
    when the chunk ends.  They are batch's rows if a batch is given;
    otherwise every chunk is written into one chunk-sized buffer, so a
    chunk's records hold only until the next chunk is asked for.  A chunk
    that fails raises its FamelabError."""
    shared = batch is None
    if shared:
        batch = new_trajectories(min(CHUNK, len(seeds)), cfg.schedule.T, source.dim)
    for lo in range(0, len(seeds), CHUNK):
        rows = slice(lo, lo + CHUNK)
        records = batch[: len(seeds[rows])] if shared else batch[rows]
        records["class_id"], records["seed"] = classes[rows], seeds[rows]
        [out] = _sample([source], cfg, seeds[rows], classes[rows], index[rows], records)
        if isinstance(out, FamelabError):
            raise out
        yield records


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

    Returns one `trajectory_dtype` record array in job order, class by class:
    every level's state and every step's conditional denoiser output, with
    scores NaN.  The integrator rounds each into its row as it is made.
    Each trajectory's stream seed is derive_seed(base_seed, class, index),
    so any (base_seed, class, index) triple reproduces identically whatever
    else is in the batch.
    """
    jobs = _jobs([source], base_seed, class_ids, n_per_class)
    batch = new_trajectories(len(jobs[0]), cfg.schedule.T, source.dim)
    for _ in _record_chunks(source, cfg, *jobs, batch):
        pass
    return batch


def sample_finals(sources, cfg: SamplerConfig, base_seed: int, class_ids, n_per_class: int) -> list:
    """Sample the same trajectories through each of several guided sources
    over one base, as the rows of a sweep or the sides of a paired compare
    are.  Returns, for each source, the float32-rounded final states of the
    batch `sample_batch` would return for it, as an (n, d) float64 array in
    job order, or the FamelabError it would raise; no trajectory batch is
    made."""
    sources = list(sources)
    return _sample(sources, cfg, *_jobs(sources, base_seed, class_ids, n_per_class))
