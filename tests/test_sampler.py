"""Integrator tests against closed-form flows and the reproducibility contract."""

import tracemalloc

import numpy as np
import pytest

from famelab.config import ExperimentConfig
from famelab.denoiser import TrainConfig, train
from famelab.errors import (
    DegeneratePointError,
    DivergedError,
    FamelabError,
    IncompatiblePoolError,
    InvalidArgumentError,
    NotFoundError,
)
from famelab.gmm import GmmComponent, GmmSpec, exact_sampler, preset
from famelab.guidance import FAME_DEFAULTS, GuidanceConfig, GuidedSource, guided_source
from famelab.metrics import ComponentTagScorer, frechet_distance
from famelab.pool import FailurePool, PoolBuildConfig, build_pool
from famelab import denoiser, sampler
from famelab.sampler import (
    AnalyticSource,
    NeuralSource,
    SamplerConfig,
    _integrate_chunk,
    sample_batch,
    sample_finals,
)
from famelab.schedule import (
    NoiseSchedule,
    derive_seed,
    initial_noise,
    make_schedule,
    new_trajectories,
    trajectory_dtype,
)
from tests.oracles import ideal_denoiser


def single_gaussian(mean, std):
    d = len(mean)
    comp = GmmComponent(np.asarray(mean, dtype=float), std**2 * np.eye(d), 1.0, 2.0)
    return GmmSpec({1: [comp]}, {1: 1.0})


def closed_form_endpoint(x0, mean, std, sigma_max):
    """Exact flow endpoint for a single Gaussian: the deviation from the mean
    contracts by sqrt((s^2 + sigma^2) / (s^2 + sigma_max^2)) as sigma -> 0."""
    shrink = np.sqrt(std**2 / (std**2 + sigma_max**2))
    return mean + (x0 - mean) * shrink


def plain(base):
    """The base source unguided: conditional sampling, w = 1, f = 0."""
    return guided_source(base, None, GuidanceConfig())


def integrate(source, cfg, seeds, class_ids):
    """Float64 (states, outputs) of trajectories integrated as one chunk
    through a guided source, from their streams' initial noise."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    x = initial_noise(seeds, source.dim) * cfg.schedule.sigmas[0]
    neg = source.bind(cfg.schedule, seeds, class_ids)
    return integrate_from(source, cfg, x, neg, class_ids, np.arange(len(seeds)), 0, cfg.schedule.T)


def integrate_from(source, cfg, x, neg, class_ids, index, start, stop):
    """Float64 (states, outputs) of one `_integrate_chunk` call, recorded
    into arrays of its own; the state it returns is the last recorded."""
    n, d = x.shape
    record = np.full((n, stop - start + 1, d), np.nan), np.full((n, stop - start, d), np.nan)
    final = _integrate_chunk(source, cfg, x, neg, class_ids, index, start, stop, record)
    assert final.tobytes() == record[0][:, -1].tobytes()
    return record


def alone(source, cfg, seed, class_id):
    """Float64 states and outputs of one trajectory integrated by itself
    from the stream `seed`."""
    states, outputs = integrate(plain(source), cfg, [seed], np.array([class_id]))
    return states[0], outputs[0]


class TestHandSteps:
    """One and two Euler steps on a standard Gaussian, checked against values
    worked out by hand: D(x, sigma) = x * s^2/(s^2 + sigma^2) for N(0, 1)."""

    def test_two_euler_steps(self):
        spec = single_gaussian([0.0], 1.0)
        sched = NoiseSchedule(np.array([1.0, 0.9, 0.0]))
        cfg = SamplerConfig(schedule=sched, method="euler")
        states, _ = alone(AnalyticSource(spec), cfg, 5, 1)

        x0 = float(np.random.default_rng(5).standard_normal(1)[0]) * 1.0
        # step 1: D = x/2, rhs = (x - D)/1 = x/2, h = -0.1
        x1 = x0 - 0.1 * (x0 / 2.0)
        # step 2 lands exactly on the denoised point: x - sigma * (x - D)/sigma = D
        x2 = x1 * (1.0 / 1.81)
        np.testing.assert_allclose(states[:, 0], [x0, x1, x2], rtol=1e-6)

    def test_final_euler_step_lands_on_denoiser_output(self):
        spec = single_gaussian([1.5, -0.5], 0.7)
        sched = NoiseSchedule(np.array([2.0, 0.8, 0.0]))
        cfg = SamplerConfig(schedule=sched, method="euler")
        states, _ = alone(AnalyticSource(spec), cfg, 11, 1)
        expected = ideal_denoiser(spec, states[1], 0.8, 1)
        np.testing.assert_allclose(states[2], expected, rtol=1e-6)


class TestClosedFormFlow:
    MEAN = np.array([2.0, -1.0])
    STD = 0.8
    SIGMA_MAX = 10.0

    def endpoint_errors(self, method, T, n=64):
        # karras-like grid: the last interval is ~sigma_min wide, so the
        # first-order final step adds O(sigma_min^2) error and the measured
        # ratios reflect the integrator order, not the endpoint handling
        spec = single_gaussian(self.MEAN, self.STD)
        sched = make_schedule("karras-like", T, 1e-3, self.SIGMA_MAX)
        cfg = SamplerConfig(schedule=sched, method=method)
        finals = sample_batch(plain(AnalyticSource(spec)), cfg, 99, [1], n)["states"][:, -1]
        errs = []
        for i, final in enumerate(finals):
            seed = derive_seed(99, 1, i)
            x0 = np.random.default_rng(seed).standard_normal(2) * self.SIGMA_MAX
            truth = closed_form_endpoint(x0, self.MEAN, self.STD, self.SIGMA_MAX)
            errs.append(np.abs(final - truth).max())
        return np.array(errs)

    def test_heun_matches_closed_form(self):
        # deterministic seeds; measured 1.4e-3 mean / 3.3e-3 max at T=64
        errs = self.endpoint_errors("heun", 64)
        assert errs.mean() < 3e-3
        assert errs.max() < 7e-3

    def test_error_vanishes_with_refinement(self):
        assert self.endpoint_errors("heun", 128).mean() < 8e-4

    def test_heun_convergence_order(self):
        e1 = self.endpoint_errors("heun", 32).mean()
        e2 = self.endpoint_errors("heun", 64).mean()
        assert 3.0 <= e1 / e2 <= 5.5

    def test_euler_convergence_order(self):
        e1 = self.endpoint_errors("euler", 32).mean()
        e2 = self.endpoint_errors("euler", 64).mean()
        assert 1.6 <= e1 / e2 <= 2.6

    def test_tight_component_collapses_to_mean(self):
        spec = single_gaussian([3.0, 4.0], 1e-6)
        sched = make_schedule("karras-like", 64, 0.01, 10.0)
        cfg = SamplerConfig(schedule=sched)
        finals = sample_batch(plain(AnalyticSource(spec)), cfg, 1, [1], 8)["states"][:, -1]
        np.testing.assert_allclose(finals, np.broadcast_to([3.0, 4.0], (8, 2)), atol=1e-4)


class TestRecords:
    def setup_method(self):
        self.spec = preset("balanced2d")
        self.sched = make_schedule("karras-like", 12, 0.05, 8.0)

    def test_shapes_and_dtypes(self):
        cfg = SamplerConfig(schedule=self.sched)
        source = AnalyticSource(self.spec)
        batch = sample_batch(plain(source), cfg, 3, [2], 2)
        assert batch.dtype == trajectory_dtype(12, 2)
        assert batch["states"].shape == (2, 13, 2)
        assert batch["outputs"].shape == (2, 12, 2)
        rec = batch[1]
        assert (rec["magic"], rec["version"], rec["T"], rec["d"]) == (b"FAME", 1, 12, 2)
        assert rec["class_id"] == 2
        assert rec["seed"] == derive_seed(3, 2, 1)
        assert np.isnan(rec["score"])
        states, outputs = alone(source, cfg, derive_seed(3, 2, 1), 2)
        np.testing.assert_array_equal(rec["states"], states.astype(np.float32))
        np.testing.assert_array_equal(rec["outputs"], outputs.astype(np.float32))

    def test_recorded_outputs_are_denoiser_at_recorded_states(self):
        # states are stored float32, so recomputing at the rounded state can
        # only match to float32 precision, not bitwise
        cfg = SamplerConfig(schedule=self.sched, method="heun")
        rec = sample_batch(plain(AnalyticSource(self.spec)), cfg, 9, [1], 1)[0]
        for k in [0, 5, 11]:
            x = rec["states"][k].astype(np.float64)
            d = ideal_denoiser(self.spec, x, float(self.sched.sigmas[k]), 1)
            np.testing.assert_allclose(rec["outputs"][k], d, rtol=1e-5, atol=1e-6)


class TestDeterminism:
    def setup_method(self):
        self.spec = preset("imbalanced2d")
        self.sched = make_schedule("karras-like", 10, 0.05, 8.0)
        self.cfg = SamplerConfig(schedule=self.sched)
        self.base = AnalyticSource(self.spec)
        self.source = plain(self.base)

    def test_repeat_call_is_identical(self):
        a = sample_batch(self.source, self.cfg, 17, [1, 2], 5)
        b = sample_batch(self.source, self.cfg, 17, [1, 2], 5)
        assert a.tobytes() == b.tobytes()

    def test_subset_of_larger_batch_is_bitwise_stable(self):
        big = sample_batch(self.source, self.cfg, 31, [1, 2], 40)
        small = sample_batch(self.source, self.cfg, 31, [1, 2], 25)
        assert small.tobytes() == big[np.r_[0:25, 40:65]].tobytes()

    def test_single_equals_batch_row(self):
        rec = sample_batch(self.source, self.cfg, 7, [2], 3)[0]
        states, outputs = alone(self.base, self.cfg, derive_seed(7, 2, 0), 2)
        np.testing.assert_array_equal(rec["states"], states.astype(np.float32))
        np.testing.assert_array_equal(rec["outputs"], outputs.astype(np.float32))


class TestInitialNoise:
    """Each sample is reproducible in isolation with plain numpy: a record's
    first state is `default_rng(seed)`'s first d normals times sigma_0, the
    seed read from the record itself, whatever chunk the row fell in."""

    @pytest.mark.parametrize(
        "spec, class_ids",
        [
            (preset("imbalanced2d"), [1, 2, 3, 4]),
            (preset("balanced2d"), [6, 3]),
            (single_gaussian([0.5], 1.0), [1]),
            (single_gaussian([0.0, 1.0, -1.0, 2.0, 0.5], 0.7), [1]),
        ],
    )
    def test_first_state_is_default_rng_noise(self, monkeypatch, spec, class_ids):
        monkeypatch.setattr(sampler, "CHUNK", 7)
        sched = make_schedule("karras-like", 3, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched, method="euler")
        batch = sample_batch(plain(AnalyticSource(spec)), cfg, 2**63 + 5, class_ids, 9)
        for rec in batch:
            x0 = np.random.default_rng(int(rec["seed"])).standard_normal(spec.dim)
            assert rec["states"][0].tobytes() == np.float32(x0 * sched.sigmas[0]).tobytes()


@pytest.fixture(scope="module")
def model():
    spec = single_gaussian([0.5, -0.5], 1.0)
    return train(spec, TrainConfig(steps=300, batch_size=64, seed=4))


class TestNeuralDeterminism:
    def test_subset_bitwise_stable(self, model):
        sched = make_schedule("karras-like", 8, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched)
        src = plain(NeuralSource(model))
        big = sample_batch(src, cfg, 13, [1], 7)
        small = sample_batch(src, cfg, 13, [1], 3)
        assert big[:3].tobytes() == small.tobytes()

    def test_single_row_padding_matches_batch(self, model):
        # n = 1 runs the MLP on a single row; its float32 record must agree
        # with the same trajectory evaluated inside a larger chunk
        sched = make_schedule("karras-like", 8, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched)
        src = NeuralSource(model)
        rec = sample_batch(plain(src), cfg, 50, [1], 5)[0]
        states, _ = alone(src, cfg, derive_seed(50, 1, 0), 1)
        np.testing.assert_array_equal(rec["states"], states.astype(np.float32))


class _ScratchSpy(GuidedSource):
    """A guided source that keeps every scratch dict its steps are given."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scratches = []

    def step(self, x, k, schedule, class_ids, neg, scratch=None):
        self.scratches.append(scratch)
        return super().step(x, k, schedule, class_ids, neg, scratch)


class TestScratch:
    def test_one_scratch_per_integrate_call(self, model):
        """Every step of one `_integrate_chunk` call gets the same dict, in
        which the MLP keeps its hidden buffers, and the next call a new one."""
        sched = make_schedule("karras-like", 8, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched, method="heun")
        spy = _ScratchSpy(NeuralSource(model), None, GuidanceConfig(w=1.5))
        seeds = derive_seed(3, 1, np.arange(5))
        x = initial_noise(seeds, 2) * sched.sigmas[0]
        calls = []
        for _ in range(2):
            spy.scratches = []
            _integrate_chunk(spy, cfg, x, None, np.ones(5, np.int64), np.arange(5), 0, sched.T)
            calls.append(spy.scratches)
        first, second = calls
        assert len(first) == len(second) == 2 * sched.T - 1
        for seen in calls:
            assert isinstance(seen[0], dict) and all(s is seen[0] for s in seen)
            assert [b.shape for b in seen[0]["hidden"]] == [(5, denoiser.HIDDEN)] * 2
        assert second[0] is not first[0]


class TestPlanCount:
    """The analytic source plans `GmmSpec.evaluate` once per item list of a
    `_integrate_chunk` call, not once per step."""

    @pytest.mark.parametrize(
        "guidance, plans",
        [(GuidanceConfig(w=1.0), 1), (GuidanceConfig(w=1.5, cfg_interval=(0.2, 0.7)), 2)],
        ids=["w=1", "cfg_interval"],
    )
    def test_one_plan_per_item_list(self, monkeypatch, guidance, plans):
        built = []
        plan = GmmSpec._plan
        monkeypatch.setattr(GmmSpec, "_plan", lambda *args: built.append(args[1]) or plan(*args))
        sched = reference_schedule()
        cfg = SamplerConfig(schedule=sched, method="heun")
        source = guided_source(AnalyticSource(preset("imbalanced2d")), None, guidance)
        classes = np.repeat(np.array([1, 2, 3], dtype=np.int64), 12)
        x = initial_noise(derive_seed(4, classes, np.arange(36)), 2) * sched.sigmas[0]
        _integrate_chunk(source, cfg, x, None, classes, np.arange(36), 0, sched.T)
        assert built == [36] * plans


class TestChunkMemory:
    """One chunk of 1,024 analytic trajectories at T=64 Heun, w=1.5: the
    integrator writes each step where its caller keeps it and allocates no
    per-step trajectory arrays, which would add 2 MiB of float64 states and
    outputs (tracemalloc peaks measured 1.6 MiB with them written in place,
    3.6 MiB with per-chunk arrays).  At w=1 each step evaluates only each
    row's own entries, under the same limit."""

    LIMIT = 2.5 * 2**20

    def peak(self, sample, w=1.5):
        """sample(source, cfg, base_seed, [1, 2], n_per_class) of 512 per
        class at guidance weight w, after a small warm-up call, with its
        tracemalloc peak."""
        cfg = SamplerConfig(schedule=reference_schedule(), method="heun")
        source = guided_source(AnalyticSource(preset("imbalanced2d")), None, GuidanceConfig(w=w))
        sample(source, cfg, 0, [1, 2], 2)
        tracemalloc.start()
        try:
            out = sample(source, cfg, 0, [1, 2], 512)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_finals(self):
        [finals], peak = self.peak(lambda source, *args: sample_finals([source], *args))
        assert finals.shape == (1024, 2)
        assert peak < self.LIMIT

    def test_sample_batch_beyond_its_batch(self):
        batch, peak = self.peak(sample_batch)
        assert len(batch) == 1024
        assert peak - batch.nbytes < self.LIMIT

    def test_sample_finals_conditional_only(self):
        [finals], peak = self.peak(lambda source, *args: sample_finals([source], *args), w=1.0)
        assert finals.shape == (1024, 2)
        assert peak < self.LIMIT


class _BlowupSource:
    """Poisons one chosen row once sigma falls to a given level.  A huge
    finite output would not do: the update x + h*(x - D)/sigma moves toward
    D without passing it, so only a non-finite output actually breaks the
    state."""

    dim = 2

    def __init__(self, bad_row, below):
        self.bad_row = bad_row
        self.below = below

    def fingerprint(self):
        return 0

    def denoise(self, x, sigma, mixtures, scratch=None):
        out = np.array(x)
        if sigma <= self.below:
            out[self.bad_row] = np.inf
        return [out for _ in mixtures]


class _UnderflowSource(_BlowupSource):
    def denoise(self, x, sigma, mixtures, scratch=None):
        if sigma <= self.below:
            raise DegeneratePointError("vanished")
        return [np.array(x) for _ in mixtures]


class _ClassBlowupSource(_BlowupSource):
    """Poisons the last row of one class in each chunk that holds it."""

    def __init__(self, class_id, below):
        self.class_id = class_id
        self.below = below

    def denoise(self, x, sigma, mixtures, scratch=None):
        out = np.array(x)
        rows = np.flatnonzero(mixtures[0] == self.class_id)
        if sigma <= self.below and len(rows):
            out[rows[-1]] = np.inf
        return [out for _ in mixtures]


class TestFailurePaths:
    def setup_method(self):
        self.sched = make_schedule("karras-like", 10, 0.05, 8.0)
        self.cfg = SamplerConfig(schedule=self.sched, method="euler")

    def test_divergence_reports_class_index_step(self):
        source = plain(_BlowupSource(bad_row=4, below=self.sched.sigmas[3]))
        with pytest.raises(DivergedError) as ei:
            sample_batch(source, self.cfg, 0, [7], 6)
        assert ei.value.class_id == 7
        assert ei.value.index == 4
        assert ei.value.step == 3

    def test_density_underflow_becomes_divergence(self):
        source = plain(_UnderflowSource(bad_row=0, below=self.sched.sigmas[2]))
        with pytest.raises(DivergedError) as ei:
            sample_batch(source, self.cfg, 0, [1], 3)
        assert ei.value.step == 2

    def test_divergence_past_the_first_chunk_names_its_row(self, monkeypatch):
        # chunks of 4 over classes 3 and 7, 6 each: the second chunk holds
        # rows 4..7, and its last row, class 7 index 1, is the one poisoned
        monkeypatch.setattr(sampler, "CHUNK", 4)
        source = plain(_ClassBlowupSource(7, below=self.sched.sigmas[3]))
        with pytest.raises(DivergedError) as ei:
            sample_batch(source, self.cfg, 0, [3, 7], 6)
        assert (ei.value.class_id, ei.value.index, ei.value.step) == (7, 1, 3)

    @pytest.mark.parametrize("method", ["euler", "heun"])
    def test_overflowing_step_is_a_divergence(self, method):
        # w = 1e308 overflows the first step's state; with Heun that is its
        # predictor, which the corrector must not be handed
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0), method=method)
        base = AnalyticSource(preset("imbalanced2d"))
        source = guided_source(base, None, GuidanceConfig(w=1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError) as alone:
                sample_batch(source, cfg, 8, [1, 2], 4)
            ok, err = sample_finals([plain(base), source], cfg, 8, [1, 2], 4)
        assert alone.value.step == 0
        assert isinstance(ok, np.ndarray) and isinstance(err, DivergedError)
        assert (err.class_id, err.index, err.step) == (alone.value.class_id, alone.value.index, 0)

    # [1, None] is test_mixed_class_kinds_rejected's case
    @pytest.mark.parametrize("class_ids", [None, [None], 1], ids=["none", "none-item", "int"])
    def test_every_trajectory_needs_a_class(self, class_ids):
        src = plain(AnalyticSource(preset("balanced2d")))
        with pytest.raises(InvalidArgumentError):
            sample_batch(src, self.cfg, 0, class_ids, 2)

    def test_mixed_class_kinds_rejected(self):
        src = plain(AnalyticSource(preset("balanced2d")))
        with pytest.raises(InvalidArgumentError):
            sample_batch(src, self.cfg, 0, [1, None], 2)

    def test_class_ids_must_fit_the_record(self, model):
        # -1 marks an unconditional record in older files, 0 is the null
        # token, and class_id is stored as i4
        src = plain(AnalyticSource(preset("balanced2d")))
        for c in (-1, -3, 0, 2**31, 2**70):
            with pytest.raises(InvalidArgumentError):
                sample_batch(src, self.cfg, 0, [c], 2)
        # the MLP would answer token 0 with unconditional samples
        neural = guided_source(NeuralSource(model), None, GuidanceConfig(w=1.5))
        with pytest.raises(InvalidArgumentError):
            sample_batch(neural, self.cfg, 0, [0], 3)

    def test_repeated_class_ids_rejected(self):
        # a repeated class would give byte-identical duplicate records
        src = plain(AnalyticSource(preset("balanced2d")))
        with pytest.raises(InvalidArgumentError):
            sample_batch(src, self.cfg, 0, [1, 1], 2)

    def test_n_per_class_validated(self):
        # and base_seed: a float seed would be truncated to another stream
        src = plain(AnalyticSource(preset("balanced2d")))
        for n in (0, True, 2.5, "3"):
            with pytest.raises(InvalidArgumentError):
                sample_batch(src, self.cfg, 0, [1], n)
        for seed in (2.5, True, "2"):
            with pytest.raises(InvalidArgumentError):
                sample_batch(src, self.cfg, seed, [1], 2)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(schedule=self.sched, method="rk4")


class TestSampleQuality:
    def test_conditional_samples_match_exact_sampler(self):
        spec = preset("balanced2d")
        sched = make_schedule("karras-like", 32, 0.01, 10.0)
        cfg = SamplerConfig(schedule=sched)
        gen = sample_batch(plain(AnalyticSource(spec)), cfg, 2, [3], 2000)["states"][:, -1].astype(np.float64)
        ref = exact_sampler(spec, np.random.default_rng(77), class_id=3, n=4000)
        assert frechet_distance(gen, ref) < 0.05


class _PerClassSource:
    """The analytic oracle evaluated the plain way: for each mixture asked
    for, one `ideal_denoiser` call per class present, on that class's rows,
    or one on the marginal, each from that mixture's own components
    (`tests.oracles`)."""

    def __init__(self, spec):
        self.spec = spec
        self.dim = spec.dim

    def denoise(self, x, sigma, mixtures, scratch=None):
        return [self.one(x, float(sigma), m) for m in mixtures]

    def one(self, x, sigma, class_ids):
        if class_ids is None:
            return ideal_denoiser(self.spec, x, sigma, None)
        out = np.empty_like(x)
        for c in np.unique(class_ids):
            rows = class_ids == c
            out[rows] = ideal_denoiser(self.spec, x[rows], sigma, int(c))
        return out

    def fingerprint(self):
        return self.spec.fingerprint()


def _component(mean, var, weight, tag=2.0):
    return GmmComponent(np.asarray(mean, dtype=float), var * np.eye(len(mean)), weight, tag)


def uneven_spec():
    """Classes of 1, 2 and 3 components; classes 2 and 3 share one."""
    shared = _component([0.0, 0.5], 0.6, 0.25, 1.4)
    return GmmSpec(
        {
            1: [_component([3.0, 0.0], 0.2, 1.0)],
            2: [_component([-3.0, 1.0], 0.3, 0.75), shared],
            3: [_component([0.0, -3.0], 0.1, 0.5), _component([1.0, -2.0], 0.4, 0.25), shared],
        },
        {1: 0.5, 2: 0.3, 3: 0.2},
    )


def wide_spec():
    """A 9-component class beside a 4-component one sharing a component:
    past 8 terms numpy sums a row pairwise, so padding the narrow class
    with zero terms would change its bits."""
    rng = np.random.default_rng(5)
    shared = _component([0.0, 0.0], 0.8, 0.2, 1.4)
    wide = [_component(rng.normal(size=2) * 3, 0.3, 0.1) for _ in range(8)]
    narrow = [_component(rng.normal(size=2) * 3, 0.2, 0.8 / 3) for _ in range(3)]
    return GmmSpec({1: wide + [shared], 2: narrow + [shared]}, {1: 0.6, 2: 0.4})


def reference_schedule():
    cfg = ExperimentConfig()
    return make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max)


class TestSharedComponentOracle:
    """AnalyticSource evaluates each distinct component once and reduces per
    mixture; every output must carry the bits of the per-class evaluation."""

    @pytest.mark.parametrize(
        "spec, every",
        [(preset("imbalanced2d"), 1), (preset("balanced2d"), 4), (uneven_spec(), 4), (wide_spec(), 4)],
        ids=["imbalanced2d", "balanced2d", "uneven", "wide"],
    )
    def test_matches_per_class_denoiser(self, spec, every):
        sched = reference_schedule()
        src, ref = AnalyticSource(spec), _PerClassSource(spec)
        ids = np.array(spec.class_ids)
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 1024):
            for k in range(0, sched.T, every):
                sigma = sched.sigmas[k]
                x = rng.standard_normal((n, 2)) * (2.0 + sigma)
                cls = rng.choice(ids, size=n)
                d1, d0 = src.denoise(x, sigma, [cls, None])
                want1, want0 = ref.denoise(x, sigma, [cls, None])
                np.testing.assert_array_equal(d1, want1)
                np.testing.assert_array_equal(d0, want0)
                np.testing.assert_array_equal(src.denoise(x, sigma, [cls])[0], want1)
                np.testing.assert_array_equal(src.denoise(x, sigma, [None])[0], want0)

    def test_unconditional_pair_is_marginal_twice(self):
        # a mixture list may name the marginal more than once
        spec = preset("imbalanced2d")
        sigma = reference_schedule().sigmas[10]
        x = np.random.default_rng(3).standard_normal((5, 2))
        d1, d0 = AnalyticSource(spec).denoise(x, sigma, [None, None])
        want = ideal_denoiser(spec, x, float(sigma), None)
        np.testing.assert_array_equal(d1, want)
        np.testing.assert_array_equal(d0, want)

    def test_underflow_raises_on_both_branches(self):
        src = AnalyticSource(preset("imbalanced2d"))
        sigma = reference_schedule().sigmas[5]
        x = np.array([[0.0, 0.0], [1e200, -1e200]])
        cls = np.array([1, 2])
        for mixtures in ([cls], [None], [cls, None], [None, None]):
            with pytest.raises(DegeneratePointError):
                src.denoise(x, sigma, mixtures)

    def test_inputs_validated(self):
        src = AnalyticSource(preset("imbalanced2d"))
        sigma = reference_schedule().sigmas[0]
        x = np.zeros((2, 2))
        with pytest.raises(NotFoundError):
            src.denoise(x, sigma, [np.array([1, 9]), None])
        with pytest.raises(InvalidArgumentError):
            src.denoise(np.zeros((2, 3)), sigma, [np.array([1, 2]), None])
        with pytest.raises(InvalidArgumentError):
            src.denoise(np.array([[0.0, np.nan], [0.0, 0.0]]), sigma, [None])
        with pytest.raises(InvalidArgumentError):
            src.denoise(x, sigma, [np.array([1])])
        with pytest.raises(InvalidArgumentError):
            src.denoise(x, 0.0, [None])


@pytest.fixture(scope="module")
def replay_pool():
    spec = preset("imbalanced2d")
    cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
    return build_pool(
        guided_source(AnalyticSource(spec), None, GuidanceConfig(w=1.5)),
        cfg,
        ComponentTagScorer(spec),
        PoolBuildConfig(n_candidates_per_class=30, n_f=4, mode="global", seed=6),
        [1, 2, 3],
    )


class TestSharedPassSampling:
    """Whole trajectories through GuidedSource: the shared-component pass
    against the per-class oracle, in float64 before the records' float32
    rounding and in the records sample_batch returns."""

    @pytest.mark.parametrize(
        "guidance",
        [GuidanceConfig(w=1.5, f=0.05, tau=0.5), GuidanceConfig(w=1.0, f=0.05, tau=0.5),
         GuidanceConfig(w=2.0)],
        ids=["w1.5-replay", "w1-replay", "w2-cfg"],
    )
    def test_states_and_outputs_identical(self, replay_pool, guidance):
        spec = preset("imbalanced2d")
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        pool = replay_pool if guidance.f > 0 else None
        shared = guided_source(AnalyticSource(spec), pool, guidance)
        plain = guided_source(_PerClassSource(spec), pool, guidance)

        seeds = [derive_seed(4, i) for i in range(60)]
        cls = np.repeat(np.array([1, 2, 3]), 20)
        a = integrate(shared, cfg, seeds, cls)
        b = integrate(plain, cfg, seeds, cls)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

        ra = sample_batch(shared, cfg, 8, [1, 2, 3], 15)
        rb = sample_batch(plain, cfg, 8, [1, 2, 3], 15)
        assert ra.tobytes() == rb.tobytes()


class TestChunkInvariance:
    """Replay at f > 0 and w = 1.5: the lockstep width changes neither the
    float64 integration nor the record array sample_batch assembles from its
    chunks."""

    def run(self, monkeypatch, pool, chunk):
        """(batch, float64 states, float64 outputs) in job order, each
        chunk's rows assembled across its calls: up to the fork and on from
        there."""
        spec = preset("imbalanced2d")
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        source = guided_source(AnalyticSource(spec), pool, GuidanceConfig(w=1.5, f=0.05, tau=0.5))
        monkeypatch.setattr(sampler, "CHUNK", chunk)
        calls = record_chunks(monkeypatch, 115)
        batch = sample_batch(source, cfg, 12, [1, 2, 3], 115)
        states, outputs = float64_rows(calls, 345, 16)
        assert not np.isnan(states).any() and not np.isnan(outputs).any()
        return batch, states, outputs

    def test_chunk_width_does_not_matter(self, monkeypatch, replay_pool):
        batch, states, outputs = self.run(monkeypatch, replay_pool, 345)
        for chunk in (1, 333, 1024):
            got, got_states, got_outputs = self.run(monkeypatch, replay_pool, chunk)
            assert got.tobytes() == batch.tobytes(), chunk
            np.testing.assert_array_equal(got_states, states)
            np.testing.assert_array_equal(got_outputs, outputs)


def record_chunks(monkeypatch, n_per_class):
    """Record every `_integrate_chunk` call as (source, rows in job order of
    a batch over classes 1, 2, ..., start, stop, states, outputs): the
    float64 states and outputs it made, copied into the record the call was
    given, if any."""
    calls = []

    def integrate(source, cfg, x, neg, class_ids, index, start, stop, record=None):
        states, outputs = integrate_from(source, cfg, x, neg, class_ids, index, start, stop)
        calls.append((source, (class_ids - 1) * n_per_class + index, start, stop, states, outputs))
        if record is not None:
            record[0][...], record[1][...] = states, outputs
        return states[:, -1].copy()

    monkeypatch.setattr(sampler, "_integrate_chunk", integrate)
    return calls


def float64_rows(calls, n, T):
    """The float64 states and outputs the recorded calls integrated, each
    written over its rows and levels in call order."""
    states, outputs = np.full((n, T + 1, 2), np.nan), np.full((n, T, 2), np.nan)
    for _, rows, start, stop, s, o in calls:
        states[rows, start : stop + 1] = s
        outputs[rows, start:stop] = o
    return states, outputs


ANALYTIC_SWEEPS = {
    "f": [GuidanceConfig(w=1.5, f=f, tau=0.5) for f in (0.0, 0.02, 0.05, 0.1)],
    "tau": [GuidanceConfig(w=1.5, f=0.05, tau=tau) for tau in (0.2, 0.5, 0.8, 0.0)],
    "w": [GuidanceConfig(w=w, f=0.05, tau=0.5) for w in (1.0, 1.5, 2.0)],
    "interval": [
        GuidanceConfig(w=2.0, cfg_interval=(0.0, 0.5)),
        GuidanceConfig(w=2.0, cfg_interval=(0.0, 0.75)),
        GuidanceConfig(w=2.0, f=0.05, tau=0.3, cfg_interval=(0.0, 0.5)),
        GuidanceConfig(w=2.0, cfg_interval=(0.0, 0.5)),
    ],
    # equal weights throughout: the rows part where replay starts
    "duplicate": [GuidanceConfig(w=1.5, f=0.05, tau=0.5)] * 2,
    # CFG opens after replay starts, so the rows part at replay, not at CFG
    "w-interval": [GuidanceConfig(w=w, f=0.05, tau=0.7, cfg_interval=(0.6, 1.0)) for w in (1.0, 1.5, 2.0)],
    # equal weights and no replay: the rows never part, and each resumes
    # from the last level for zero steps
    "identical": [GuidanceConfig(w=1.5)] * 3,
}


@pytest.fixture(scope="module")
def neural_pool(model):
    cfg = SamplerConfig(schedule=make_schedule("karras-like", 8, 0.05, 8.0))
    return build_pool(
        guided_source(NeuralSource(model), None, GuidanceConfig(w=1.5)),
        cfg,
        ComponentTagScorer(single_gaussian([0.5, -0.5], 1.0)),
        PoolBuildConfig(n_candidates_per_class=12, n_f=3, mode="global", seed=3),
        [1],
    )


def finals_of(batch):
    """The final states a batch holds, as sample_finals returns them."""
    return batch["states"][:, -1].astype(np.float64)


class TestSampleBatches:
    """Rows sampled together by sample_finals, sharing the steps before
    their guidance first differs, against each row sampled alone: the same
    final states and the same float64 states and outputs."""

    def check_rows_match_alone(self, monkeypatch, sources, cfg, class_ids, n_per_class=5):
        monkeypatch.setattr(sampler, "CHUNK", 7)
        calls = record_chunks(monkeypatch, n_per_class)
        n, T = n_per_class * len(class_ids), cfg.schedule.T
        together = sample_finals(sources, cfg, 8, class_ids, n_per_class)
        # each chunk makes one shared call through the first source, from
        # level 0 to the fork, then one call per source from the fork to T
        per_chunk = len(sources) + 1
        chunks = [calls[lo : lo + per_chunk] for lo in range(0, len(calls), per_chunk)]
        assert len(chunks) == -(-n // 7)
        for shared, *rest in chunks:
            assert shared[0] is sources[0] and shared[2] == 0
            assert [c[0] for c in rest] == sources
            assert all((c[2], c[3]) == (shared[3], T) for c in rest)
        for i, (source, finals) in enumerate(zip(sources, together)):
            want = float64_rows([c for chunk in chunks for c in (chunk[0], chunk[1 + i])], n, T)
            del calls[:]
            alone = sample_batch(source, cfg, 8, class_ids, n_per_class)
            assert finals.tobytes() == finals_of(alone).tobytes()
            got = float64_rows(calls, n, T)
            np.testing.assert_array_equal(want[0], got[0])
            np.testing.assert_array_equal(want[1], got[1])

    @pytest.mark.parametrize("method", ["euler", "heun"])
    @pytest.mark.parametrize("sweep", sorted(ANALYTIC_SWEEPS))
    def test_analytic_rows_match_alone(self, monkeypatch, replay_pool, sweep, method):
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0), method=method)
        base = AnalyticSource(preset("imbalanced2d"))
        sources = [guided_source(base, replay_pool, g) for g in ANALYTIC_SWEEPS[sweep]]
        self.check_rows_match_alone(monkeypatch, sources, cfg, [1, 2, 3])

    def test_rows_replaying_other_pools_match_alone(self, monkeypatch, replay_pool):
        # equal weights, but each row replays its own pool from the first
        # replaying step on
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        base = AnalyticSource(preset("imbalanced2d"))
        fewer = FailurePool(replay_pool.records[1:], "global", replay_pool.schedule_hash, replay_pool.source_hash)
        guidance = GuidanceConfig(w=1.5, f=0.05, tau=0.5)
        sources = [guided_source(base, pool, guidance) for pool in (replay_pool, fewer)]
        self.check_rows_match_alone(monkeypatch, sources, cfg, [1, 2, 3])

    @pytest.mark.parametrize("method", ["euler", "heun"])
    def test_neural_rows_match_alone(self, monkeypatch, model, neural_pool, method):
        # an MLP row's bits depend on its chunk, which sampling together keeps
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 8, 0.05, 8.0), method=method)
        base = NeuralSource(model)
        sources = [
            guided_source(base, neural_pool, GuidanceConfig(w=1.5, f=f, tau=0.5)) for f in (0.0, 0.05, 0.1)
        ]
        self.check_rows_match_alone(monkeypatch, sources, cfg, [1], n_per_class=15)

    def test_diverging_row_fails_alone(self, monkeypatch, replay_pool):
        # f = 1e300 diverges once replay begins, after the shared steps
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        base = AnalyticSource(preset("imbalanced2d"))
        sources = [guided_source(base, replay_pool, GuidanceConfig(w=1.5, f=f, tau=0.5)) for f in (0.05, 1e300, 0.1)]
        monkeypatch.setattr(sampler, "CHUNK", 7)
        with np.errstate(over="ignore", invalid="ignore"):
            a, err, b = sample_finals(sources, cfg, 8, [1, 2, 3], 5)
            with pytest.raises(DivergedError) as alone:
                sample_batch(sources[1], cfg, 8, [1, 2, 3], 5)
        assert isinstance(err, DivergedError)
        assert (err.class_id, err.index, err.step) == (alone.value.class_id, alone.value.index, alone.value.step)
        assert err.step >= 7
        assert a.tobytes() == finals_of(sample_batch(sources[0], cfg, 8, [1, 2, 3], 5)).tobytes()
        assert b.tobytes() == finals_of(sample_batch(sources[2], cfg, 8, [1, 2, 3], 5)).tobytes()

    def test_divergence_in_shared_steps_fails_every_row(self, replay_pool):
        # w = 1e300 diverges before replay begins; a row whose pool cannot
        # bind still fails on its pool first, as it does alone
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        base = AnalyticSource(preset("imbalanced2d"))
        stale = FailurePool(replay_pool.records, "global", 0, replay_pool.source_hash)
        sources = [
            guided_source(base, pool, GuidanceConfig(w=1e300, f=f, tau=0.5))
            for pool, f in ((None, 0.0), (replay_pool, 0.05), (stale, 0.05))
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            errors = sample_finals(sources, cfg, 8, [1, 2], 4)
            for source, err in zip(sources, errors):
                with pytest.raises(FamelabError) as alone:
                    sample_batch(source, cfg, 8, [1, 2], 4)
                assert (type(err), str(err)) == (type(alone.value), str(alone.value))
        assert [type(e) for e in errors] == [DivergedError, DivergedError, IncompatiblePoolError]

    def test_unbindable_pool_fails_its_row_alone(self, replay_pool):
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        base = AnalyticSource(preset("imbalanced2d"))
        stale = FailurePool(replay_pool.records, "global", 0, replay_pool.source_hash)
        guidance = GuidanceConfig(w=1.5, f=0.05, tau=0.5)
        sources = [guided_source(base, pool, guidance) for pool in (stale, replay_pool)]
        sources.insert(1, guided_source(base, None, GuidanceConfig(w=1.5)))
        bad, a, b = sample_finals(sources, cfg, 8, [1, 2], 4)
        assert isinstance(bad, IncompatiblePoolError)
        with pytest.raises(IncompatiblePoolError):
            sample_batch(sources[0], cfg, 8, [1, 2], 4)
        assert a.tobytes() == finals_of(sample_batch(sources[1], cfg, 8, [1, 2], 4)).tobytes()
        assert b.tobytes() == finals_of(sample_batch(sources[2], cfg, 8, [1, 2], 4)).tobytes()

    def test_sources_must_share_a_base(self):
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 16, 0.02, 8.0))
        spec = preset("imbalanced2d")
        sources = [plain(AnalyticSource(spec)), plain(AnalyticSource(spec))]
        with pytest.raises(InvalidArgumentError):
            sample_finals(sources, cfg, 8, [1], 2)


class TestSharedStepCount:
    """Guided evaluations of a four-row sweep at the reference operating
    schedule (T=64 Heun, tau=0.3): an f sweep shares steps 0-43, 2 x 44 = 88
    evaluations, and each row adds 39 (20 steps, the last without a
    corrector), 88 + 4 x 39 = 244 per chunk; a w sweep differs from step 0
    and costs 4 x 127 = 508; a lone FaME source runs to its fork and on from
    there, 88 + 39 = 127, as in one pass."""

    @pytest.mark.parametrize(
        "guidances, per_chunk",
        [
            ([GuidanceConfig(w=1.0, f=f, tau=0.3) for f in (0.0, 0.02, 0.05, 0.1)], 244),
            ([GuidanceConfig(w=w, tau=0.3) for w in (1.0, 1.5, 2.0, 3.0)], 508),
            ([FAME_DEFAULTS], 127),
        ],
        ids=["f", "w", "lone"],
    )
    def test_step_calls_per_chunk(self, monkeypatch, guidances, per_chunk):
        spec = preset("imbalanced2d")
        cfg = SamplerConfig(schedule=reference_schedule())
        base = AnalyticSource(spec)
        records = new_trajectories(2, 64, 2)
        records["class_id"], records["score"], records["outputs"] = 1, 0.0, 0.0
        pool = FailurePool(records, "global", cfg.schedule.fingerprint(), base.fingerprint())
        calls = []
        step = GuidedSource.step

        def counted(self, *args):
            calls.append(self)
            return step(self, *args)

        monkeypatch.setattr(GuidedSource, "step", counted)
        monkeypatch.setattr(sampler, "CHUNK", 4)
        sources = [guided_source(base, pool, g) for g in guidances]
        finals = sample_finals(sources, cfg, 3, [1], 8)
        assert all(isinstance(x, np.ndarray) for x in finals)
        assert len(calls) == 2 * per_chunk
