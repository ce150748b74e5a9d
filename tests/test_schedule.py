"""Schedules, seed derivation, rng streams, and trajectory records."""

import numpy as np
import pytest

from famelab.errors import InvalidArgumentError, MalformedFileError
from famelab.schedule import (
    NoiseSchedule,
    Rng,
    TrajectoryRecord,
    derive_seed,
    load_trajectory,
    make_schedule,
    save_trajectory,
    splitmix64,
    trajectory_from_bytes,
    trajectory_to_bytes,
)


class TestMakeSchedule:
    def test_linear_endpoints_and_zero_snap(self):
        s = make_schedule("linear-sigma", 2, 0.01, 1.0)
        np.testing.assert_allclose(s.sigmas, [1.0, 0.505, 0.0])
        assert s.T == 2
        assert s.sigma_max == 1.0
        assert s.sigma_min == 0.505

    def test_linear_single_step(self):
        s = make_schedule("linear-sigma", 1, 0.01, 1.0)
        np.testing.assert_allclose(s.sigmas, [1.0, 0.0])

    def test_karras_endpoints(self):
        s = make_schedule("karras-like", 64, 0.02, 10.0)
        assert s.sigmas[0] == pytest.approx(10.0)
        assert s.sigmas[-2] == pytest.approx(0.02)
        assert s.sigmas[-1] == 0.0
        assert len(s.sigmas) == 65

    def test_karras_spends_more_steps_at_low_noise(self):
        """The power-law ramp should sit below the linear ramp mid-schedule."""
        k = make_schedule("karras-like", 32, 0.02, 10.0)
        lin = make_schedule("linear-sigma", 32, 0.02, 10.0)
        assert k.sigmas[16] < lin.sigmas[16]

    def test_strictly_decreasing(self):
        for kind in ("linear-sigma", "karras-like"):
            s = make_schedule(kind, 40, 0.01, 5.0)
            assert np.all(np.diff(s.sigmas) < 0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_schedule("cosine", 10, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError):
            make_schedule("linear-sigma", 0, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError):
            make_schedule("linear-sigma", 10, 1.0, 0.01)
        with pytest.raises(InvalidArgumentError):
            make_schedule("linear-sigma", 10, -1.0, 1.0)

    def test_schedule_invariants_enforced_on_raw_arrays(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule(np.array([1.0, 0.5, 0.1]))  # last not zero
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule(np.array([1.0, 1.0, 0.0]))  # not strictly decreasing
        with pytest.raises(InvalidArgumentError):
            NoiseSchedule(np.array([1.0]))

    def test_fingerprint_distinguishes_schedules(self):
        a = make_schedule("linear-sigma", 16, 0.01, 1.0)
        b = make_schedule("linear-sigma", 16, 0.01, 2.0)
        c = make_schedule("karras-like", 16, 0.01, 1.0)
        assert a.fingerprint() == make_schedule("linear-sigma", 16, 0.01, 1.0).fingerprint()
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_equality_is_by_levels(self):
        a = make_schedule("linear-sigma", 16, 0.01, 1.0)
        b = NoiseSchedule(a.sigmas.copy())
        assert a == b


class TestSeeds:
    def test_splitmix_known_vector(self):
        """Reference value for seed 0 from the published splitmix64 stream."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_deterministic_and_order_sensitive(self):
        assert derive_seed(7, 3, 11) == derive_seed(7, 3, 11)
        assert derive_seed(7, 3, 11) != derive_seed(7, 11, 3)
        assert derive_seed(7, 3, 11) != derive_seed(8, 3, 11)

    def test_derive_seed_unique_over_grid(self):
        seeds = {
            derive_seed(123, c, i) for c in range(-1, 9) for i in range(2000)
        }
        assert len(seeds) == 10 * 2000

    def test_derive_seed_in_64_bits(self):
        s = derive_seed(2**80 + 5, -1, 3)
        assert 0 <= s < 2**64

    def test_rng_reproducible(self):
        a = Rng(42).standard_normal(16)
        b = Rng(42).standard_normal(16)
        c = Rng(43).standard_normal(16)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def _record(T=5, d=2, seed=99, class_id=3, score=float("nan")):
    rng = Rng(seed)
    states = rng.standard_normal((T + 1, d))
    outputs = rng.standard_normal((T, d))
    return TrajectoryRecord.create(seed, class_id, states, outputs, score)


class TestTrajectoryRecord:
    def test_create_casts_to_float32(self):
        r = _record()
        assert r.states.dtype == np.float32
        assert r.denoiser_outputs.dtype == np.float32
        assert r.T == 5 and r.dim == 2
        np.testing.assert_array_equal(r.final_sample, r.states[-1])

    def test_score_rounded_to_float32(self):
        r = _record(score=0.1)
        assert r.quality_score == np.float32(0.1)

    def test_with_score(self):
        r = _record().with_score(1.25)
        assert r.quality_score == 1.25

    def test_equality(self):
        assert _record() == _record()
        assert _record() != _record(seed=100)
        assert _record(score=1.0) != _record(score=2.0)
        assert _record(score=float("nan")) == _record(score=float("nan"))

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            TrajectoryRecord.create(1, 1, np.zeros((6, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidArgumentError):
            TrajectoryRecord.create(1, 1, np.zeros((1, 2)), None)


class TestTrajectoryIO:
    def test_byte_length(self):
        """Header is 30 bytes; payload is 4 bytes per float32 entry."""
        r = _record(T=5, d=2)
        blob = trajectory_to_bytes(r)
        assert len(blob) == 30 + 4 * (6 * 2 + 5 * 2)

    def test_round_trip_bytes_exact(self):
        r = _record(T=9, d=3, seed=2**63 + 17, class_id=7, score=2.25)
        back, end = trajectory_from_bytes(trajectory_to_bytes(r))
        assert end == len(trajectory_to_bytes(r))
        assert back == r
        assert trajectory_to_bytes(back) == trajectory_to_bytes(r)

    def test_unconditional_round_trip(self):
        r = _record(class_id=None)
        back, _ = trajectory_from_bytes(trajectory_to_bytes(r))
        assert back.class_id is None

    def test_file_round_trip(self, tmp_path):
        r = _record(score=1.5)
        p = tmp_path / "t.traj"
        save_trajectory(r, p)
        assert load_trajectory(p) == r

    def test_requires_outputs(self):
        r = TrajectoryRecord.create(1, 1, np.zeros((3, 2)), None)
        with pytest.raises(InvalidArgumentError):
            trajectory_to_bytes(r)

    def test_malformed(self, tmp_path):
        blob = trajectory_to_bytes(_record())
        with pytest.raises(MalformedFileError):
            trajectory_from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(MalformedFileError):
            trajectory_from_bytes(blob[:10])
        with pytest.raises(MalformedFileError):
            trajectory_from_bytes(blob[:-8])
        bad_version = blob[:4] + b"\xff\xff" + blob[6:]
        with pytest.raises(MalformedFileError):
            trajectory_from_bytes(bad_version)
        p = tmp_path / "t.traj"
        p.write_bytes(blob + b"\x00")
        with pytest.raises(MalformedFileError):
            load_trajectory(p)
