"""Integrator tests against closed-form flows and the reproducibility contract."""

import numpy as np
import pytest

from famelab.denoiser import TrainConfig, train
from famelab.errors import DegeneratePointError, DivergedError, InvalidArgumentError
from famelab.gmm import GmmComponent, GmmSpec, exact_sampler, ideal_denoiser, preset
from famelab.metrics import frechet_distance
from famelab.sampler import (
    AnalyticSource,
    NeuralSource,
    SamplerConfig,
    sample_batch,
    sample_one,
)
from famelab.schedule import NoiseSchedule, Rng, derive_seed, make_schedule


def single_gaussian(mean, std):
    d = len(mean)
    comp = GmmComponent(np.asarray(mean, dtype=float), std**2 * np.eye(d), 1.0, 2.0)
    return GmmSpec({1: [comp]}, {1: 1.0})


def closed_form_endpoint(x0, mean, std, sigma_max):
    """Exact flow endpoint for a single Gaussian: the deviation from the mean
    contracts by sqrt((s^2 + sigma^2) / (s^2 + sigma_max^2)) as sigma -> 0."""
    shrink = np.sqrt(std**2 / (std**2 + sigma_max**2))
    return mean + (x0 - mean) * shrink


class TestHandSteps:
    """One and two Euler steps on a standard Gaussian, checked against values
    worked out by hand: D(x, sigma) = x * s^2/(s^2 + sigma^2) for N(0, 1)."""

    def test_two_euler_steps(self):
        spec = single_gaussian([0.0], 1.0)
        sched = NoiseSchedule(np.array([1.0, 0.9, 0.0]), "custom")
        cfg = SamplerConfig(schedule=sched, method="euler")
        rec = sample_one(AnalyticSource(spec), cfg, Rng(5), class_id=1)

        x0 = float(Rng(5).standard_normal(1)[0]) * 1.0
        # step 1: D = x/2, rhs = (x - D)/1 = x/2, h = -0.1
        x1 = x0 - 0.1 * (x0 / 2.0)
        # step 2 lands exactly on the denoised point: x - sigma * (x - D)/sigma = D
        x2 = x1 * (1.0 / 1.81)
        np.testing.assert_allclose(rec.states[:, 0], [x0, x1, x2], rtol=1e-6)

    def test_final_euler_step_lands_on_denoiser_output(self):
        spec = single_gaussian([1.5, -0.5], 0.7)
        sched = NoiseSchedule(np.array([2.0, 0.8, 0.0]), "custom")
        cfg = SamplerConfig(schedule=sched, method="euler")
        rec = sample_one(AnalyticSource(spec), cfg, Rng(11), class_id=1)
        x1 = rec.states[1].astype(np.float64)
        expected = ideal_denoiser(spec, x1, 0.8, 1)
        np.testing.assert_allclose(rec.states[2], expected, rtol=1e-6)


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
        cfg = SamplerConfig(schedule=sched, method=method, record_outputs=False)
        recs = sample_batch(AnalyticSource(spec), cfg, 99, [1], n)
        errs = []
        for i, rec in enumerate(recs):
            seed = derive_seed(99, 1, i)
            x0 = Rng(seed).standard_normal(2) * self.SIGMA_MAX
            truth = closed_form_endpoint(x0, self.MEAN, self.STD, self.SIGMA_MAX)
            errs.append(np.abs(rec.final_sample - truth).max())
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
        cfg = SamplerConfig(schedule=sched, record_outputs=False)
        recs = sample_batch(AnalyticSource(spec), cfg, 1, [1], 8)
        finals = np.stack([r.final_sample for r in recs])
        np.testing.assert_allclose(finals, np.broadcast_to([3.0, 4.0], (8, 2)), atol=1e-4)


class TestRecords:
    def setup_method(self):
        self.spec = preset("balanced2d")
        self.sched = make_schedule("karras-like", 12, 0.05, 8.0)

    def test_shapes_and_dtypes(self):
        cfg = SamplerConfig(schedule=self.sched)
        rec = sample_one(AnalyticSource(self.spec), cfg, Rng(3), class_id=2)
        assert rec.states.shape == (13, 2)
        assert rec.denoiser_outputs.shape == (12, 2)
        assert rec.states.dtype == np.float32
        assert rec.class_id == 2
        assert np.isnan(rec.quality_score)
        np.testing.assert_array_equal(rec.final_sample, rec.states[-1])

    def test_outputs_omitted_when_disabled(self):
        cfg = SamplerConfig(schedule=self.sched, record_outputs=False)
        rec = sample_one(AnalyticSource(self.spec), cfg, Rng(3), class_id=2)
        assert rec.denoiser_outputs is None

    def test_recorded_outputs_are_denoiser_at_recorded_states(self):
        # states are stored float32, so recomputing at the rounded state can
        # only match to float32 precision, not bitwise
        cfg = SamplerConfig(schedule=self.sched, method="heun")
        rec = sample_one(AnalyticSource(self.spec), cfg, Rng(9), class_id=1)
        for k in [0, 5, 11]:
            x = rec.states[k].astype(np.float64)
            d = ideal_denoiser(self.spec, x, float(self.sched.sigmas[k]), 1)
            np.testing.assert_allclose(rec.denoiser_outputs[k], d, rtol=1e-5, atol=1e-6)

    def test_unconditional_batch(self):
        cfg = SamplerConfig(schedule=self.sched, record_outputs=False)
        recs = sample_batch(AnalyticSource(self.spec), cfg, 4, None, 6)
        assert len(recs) == 6
        assert all(r.class_id is None for r in recs)


class TestDeterminism:
    def setup_method(self):
        self.spec = preset("imbalanced2d")
        self.sched = make_schedule("karras-like", 10, 0.05, 8.0)
        self.cfg = SamplerConfig(schedule=self.sched)
        self.source = AnalyticSource(self.spec)

    def test_repeat_call_is_identical(self):
        a = sample_batch(self.source, self.cfg, 17, [1, 2], 5)
        b = sample_batch(self.source, self.cfg, 17, [1, 2], 5)
        assert all(x == y for x, y in zip(a, b))

    def test_worker_count_does_not_matter(self):
        # >1024 jobs so the pool actually splits chunks
        cfg = SamplerConfig(schedule=make_schedule("karras-like", 4, 0.05, 8.0),
                            method="euler", record_outputs=False)
        a = sample_batch(self.source, cfg, 23, [1, 2], 700)
        b = sample_batch(self.source, cfg, 23, [1, 2], 700, workers=4)
        assert all(x == y for x, y in zip(a, b))

    def test_subset_of_larger_batch_is_bitwise_stable(self):
        big = sample_batch(self.source, self.cfg, 31, [1, 2], 40)
        small = sample_batch(self.source, self.cfg, 31, [1, 2], 25)
        by_key = {(r.class_id, i % 40): r for i, r in enumerate(big)}
        for i, r in enumerate(small):
            assert r == by_key[(r.class_id, i % 25)]

    def test_single_equals_batch_row(self):
        rec = sample_batch(self.source, self.cfg, 7, [2], 3)[0]
        alone = sample_one(self.source, self.cfg, Rng(derive_seed(7, 2, 0)), class_id=2)
        assert rec == alone


@pytest.fixture(scope="module")
def model():
    spec = single_gaussian([0.5, -0.5], 1.0)
    return train(spec, TrainConfig(steps=300, batch_size=64, seed=4))


class TestNeuralDeterminism:
    def test_subset_bitwise_stable(self, model):
        sched = make_schedule("karras-like", 8, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched, record_outputs=False)
        src = NeuralSource(model)
        big = sample_batch(src, cfg, 13, [1], 7)
        small = sample_batch(src, cfg, 13, [1], 3)
        assert all(x == y for x, y in zip(big[:3], small))

    def test_single_row_padding_matches_batch(self, model):
        # n = 1 takes the padded two-row path; it must agree bitwise with the
        # same trajectory evaluated inside a larger chunk
        sched = make_schedule("karras-like", 8, 0.05, 8.0)
        cfg = SamplerConfig(schedule=sched, record_outputs=False)
        src = NeuralSource(model)
        batch = sample_batch(src, cfg, 50, [1], 5)[0]
        alone = sample_one(src, cfg, Rng(derive_seed(50, 1, 0)), class_id=1)
        assert batch == alone


class _BlowupSource:
    """Poisons one chosen row after a few steps.  A huge finite output would
    not do: the update x + h*(x - D)/sigma moves toward D without passing it,
    so only a non-finite output actually breaks the state."""

    dim = 2

    def __init__(self, bad_row, from_step):
        self.bad_row = bad_row
        self.from_step = from_step

    def bind(self, ctx):
        pass

    def fingerprint(self):
        return 0

    def evaluate(self, x, sigma_index, class_ids, ctx):
        out = np.array(x)
        if ctx.step >= self.from_step:
            out[self.bad_row] = np.inf
        return out


class _UnderflowSource(_BlowupSource):
    def evaluate(self, x, sigma_index, class_ids, ctx):
        if ctx.step >= self.from_step:
            raise DegeneratePointError("vanished")
        return np.array(x)


class TestFailurePaths:
    def setup_method(self):
        self.sched = make_schedule("karras-like", 10, 0.05, 8.0)
        self.cfg = SamplerConfig(schedule=self.sched, method="euler", record_outputs=False)

    def test_divergence_reports_class_index_step(self):
        with pytest.raises(DivergedError) as ei:
            sample_batch(_BlowupSource(bad_row=4, from_step=3), self.cfg, 0, [7], 6)
        assert ei.value.class_id == 7
        assert ei.value.index == 4
        assert ei.value.step == 3

    def test_density_underflow_becomes_divergence(self):
        with pytest.raises(DivergedError) as ei:
            sample_batch(_UnderflowSource(bad_row=0, from_step=2), self.cfg, 0, [1], 3)
        assert ei.value.step == 2

    def test_mixed_class_kinds_rejected(self):
        src = AnalyticSource(preset("balanced2d"))
        with pytest.raises(InvalidArgumentError):
            sample_batch(src, self.cfg, 0, [1, None], 2)

    def test_n_per_class_validated(self):
        src = AnalyticSource(preset("balanced2d"))
        with pytest.raises(InvalidArgumentError):
            sample_batch(src, self.cfg, 0, [1], 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(schedule=self.sched, method="rk4")


class TestSampleQuality:
    def test_conditional_samples_match_exact_sampler(self):
        spec = preset("balanced2d")
        sched = make_schedule("karras-like", 32, 0.01, 10.0)
        cfg = SamplerConfig(schedule=sched, record_outputs=False)
        recs = sample_batch(AnalyticSource(spec), cfg, 2, [3], 2000)
        gen = np.stack([r.final_sample for r in recs]).astype(np.float64)
        ref = exact_sampler(spec, Rng(77), class_id=3, n=4000)
        assert frechet_distance(gen, ref) < 0.05
