"""Schedules, seed derivation, per-trajectory streams, and trajectory records."""

import numpy as np
import pytest

from famelab.errors import InvalidArgumentError, MalformedFileError
from famelab.gmm import preset
from famelab.guidance import GuidanceConfig, guided_source
from famelab.sampler import AnalyticSource, SamplerConfig, sample_batch
from famelab.schedule import (
    NoiseSchedule,
    _seed_words,
    derive_seed,
    initial_noise,
    load_trajectories,
    make_schedule,
    new_trajectories,
    splitmix64,
    trajectories_from_bytes,
    trajectory_dtype,
)


class TestMakeSchedule:
    def test_linear_endpoints_and_zero_snap(self):
        s = make_schedule("linear-sigma", 2, 0.01, 1.0)
        np.testing.assert_allclose(s.sigmas, [1.0, 0.505, 0.0])
        assert s.T == 2
        assert s.sigmas[0] == 1.0
        assert s.sigmas[-2] == 0.505

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
        for T in (0, True, 10.0):
            with pytest.raises(InvalidArgumentError):
                make_schedule("linear-sigma", T, 0.01, 1.0)
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

    def test_array_keys_match_scalar_calls(self):
        """Each element of an array derivation is the scalar derivation of
        its own keys, negative keys folded through int64 -> uint64."""
        keys = np.array([-1, 0, 1, 2**31 - 1])
        index = np.array([0, 7, 2**40, 2**63 - 1])
        for base in (0, 2**63, 2**64 - 1):
            for k in keys:
                got = derive_seed(base, np.full(4, k), index)
                assert got.dtype == np.uint64
                assert got.tolist() == [derive_seed(base, int(k), int(i)) for i in index]
            got = derive_seed(base, keys.astype(np.int32))
            assert got.tolist() == [derive_seed(base, int(k)) for k in keys]
        z = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert splitmix64(z).tolist() == [splitmix64(int(v)) for v in z]

    def test_rng_reproducible(self):
        # a record's seed alone replays its stream: the initial state is
        # numpy's default_rng(seed) noise scaled to sigma_max
        sched = make_schedule("karras-like", 4, 0.05, 8.0)
        source = guided_source(AnalyticSource(preset("balanced2d")), None, GuidanceConfig())
        cfg = SamplerConfig(schedule=sched)
        batch = sample_batch(source, cfg, 42, [1, 2], 3)
        assert len(set(batch["seed"].tolist())) == 6
        for rec in batch:
            x0 = np.random.default_rng(rec["seed"]).standard_normal(2) * sched.sigmas[0]
            np.testing.assert_array_equal(rec["states"][0], x0.astype(np.float32))


# seeds at the word and sign edges, then random uint64 seeds: with 10,000
# of them every constant and shift of the word arithmetic is exercised
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _test_seeds():
    rng = np.random.default_rng(2024)
    drawn = rng.integers(0, 2**64 - 1, size=10_000, dtype=np.uint64, endpoint=True)
    return np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), drawn])


class TestInitialNoise:
    """`initial_noise` is `default_rng(s).standard_normal(d)` per seed, bit
    for bit, from seed words computed for the whole array at once."""

    def test_seed_words_match_seed_sequence(self):
        seeds = _test_seeds()
        want = np.stack([np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds])
        got = _seed_words(seeds)
        assert got.dtype == np.uint64 and got.shape == (len(seeds), 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_default_rng(self, d):
        seeds = _test_seeds()
        want = np.stack([np.random.default_rng(int(s)).standard_normal(d) for s in seeds])
        got = initial_noise(seeds, d)
        assert got.shape == (len(seeds), d) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_any_seed_container_and_empty(self):
        want = np.stack([np.random.default_rng(s).standard_normal(3) for s in EDGE_SEEDS])
        assert initial_noise(EDGE_SEEDS, 3).tobytes() == want.tobytes()
        strided = np.zeros(len(EDGE_SEEDS), [("pad", "u1"), ("seed", "<u8")])
        strided["seed"] = EDGE_SEEDS
        assert initial_noise(strided["seed"], 3).tobytes() == want.tobytes()
        assert initial_noise(np.array([], dtype=np.uint64), 3).shape == (0, 3)


def _records(n=1, T=5, d=2, seed=99, class_id=3, score=float("nan")):
    rng = np.random.default_rng(seed)
    r = new_trajectories(n, T, d)
    r["seed"] = [seed + i for i in range(n)]
    r["class_id"] = class_id
    r["score"] = score
    r["states"] = rng.standard_normal((n, T + 1, d))
    r["outputs"] = rng.standard_normal((n, T, d))
    return r


def _record_size(T, d):
    return 30 + 4 * ((T + 1) * d + T * d)


class TestTrajectoryRecord:
    def test_create_casts_to_float32(self):
        r = _records()
        assert r["states"].dtype == np.float32
        assert r["outputs"].dtype == np.float32
        assert r.dtype["states"].shape == (6, 2)
        assert r.dtype["outputs"].shape == (5, 2)
        head = r[0]
        assert (head["magic"], head["version"], head["T"], head["d"]) == (b"FAME", 1, 5, 2)

    def test_score_rounded_to_float32(self):
        r = _records(score=0.1)
        assert r["score"][0] == np.float32(0.1)
        assert np.isnan(_records()["score"][0])

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            new_trajectories(1, 0, 2)
        with pytest.raises(InvalidArgumentError):
            new_trajectories(1, 3, 0)


class TestTrajectoryIO:
    def test_byte_length(self):
        """Header is 30 bytes; payload is 4 bytes per float32 entry."""
        assert trajectory_dtype(5, 2).itemsize == 30 + 4 * (6 * 2 + 5 * 2)
        assert trajectory_dtype(5, 2).fields["states"][1] == 30
        assert len(_records(n=3).tobytes()) == 3 * _record_size(5, 2)

    def test_round_trip_bytes_exact(self):
        r = _records(n=4, T=9, d=3, seed=2**63 + 17, class_id=7, score=2.25)
        back = trajectories_from_bytes(r.tobytes())
        assert back.dtype == r.dtype
        assert back.tobytes() == r.tobytes()
        assert back["seed"].tolist() == [2**63 + 17 + i for i in range(4)]

    def test_unconditional_round_trip(self):
        back = trajectories_from_bytes(_records(class_id=-1).tobytes())
        assert back["class_id"].tolist() == [-1]

    def test_file_round_trip(self, tmp_path):
        r = _records(n=3, score=1.5)
        p = tmp_path / "t.traj"
        p.write_bytes(r.tobytes())
        assert load_trajectories(p).tobytes() == r.tobytes()

    def test_malformed(self, tmp_path):
        blob = _records(n=3).tobytes()
        size = _record_size(5, 2)
        with pytest.raises(MalformedFileError):
            trajectories_from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(MalformedFileError):
            trajectories_from_bytes(blob[:10])
        with pytest.raises(MalformedFileError):
            trajectories_from_bytes(blob[: size - 8])
        with pytest.raises(MalformedFileError) as ei:
            trajectories_from_bytes(blob[:-8])
        assert ei.value.offset == 2 * size
        bad_version = blob[:4] + b"\xff\xff" + blob[6:]
        with pytest.raises(MalformedFileError):
            trajectories_from_bytes(bad_version)
        # a later record whose magic, version, T or d disagrees with the first one's
        changes = ((0, b"XXXX"), (4, b"\x02\x00"), (6, b"\x04\x00\x00\x00"), (10, b"\x01\x00\x00\x00"))
        for field_at, value in changes:
            bad = bytearray(blob)
            bad[2 * size + field_at : 2 * size + field_at + len(value)] = value
            with pytest.raises(MalformedFileError) as ei:
                trajectories_from_bytes(bytes(bad))
            assert ei.value.offset == 2 * size
        p = tmp_path / "t.traj"
        p.write_bytes(blob + b"\x00")
        with pytest.raises(MalformedFileError):
            load_trajectories(p)
