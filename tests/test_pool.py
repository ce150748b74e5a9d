"""Failure-pool construction, seed binding, and the on-disk format."""

import os

import numpy as np
import pytest

from famelab.errors import (
    IncompatiblePoolError,
    InvalidArgumentError,
    MalformedPoolError,
    NotFoundError,
    PoolBuildFailedError,
)
from famelab.gmm import BAD_TAG, preset, responsibilities
from famelab.guidance import GuidanceConfig, guided_source
from famelab.metrics import ComponentTagScorer
from famelab.pool import (
    FailurePool,
    PoolBuildConfig,
    build_pool,
    load_pool,
    save_pool,
)
from famelab.sampler import AnalyticSource, SamplerConfig, sample_batch
from famelab.schedule import derive_seed, make_schedule


def preset_scorer(values):
    """Scorer that assigns a fixed list of scores to each class block."""

    def scorer(finals, class_id):
        assert len(finals) == len(values)
        return np.array(values, dtype=np.float64)

    return scorer


@pytest.fixture(scope="module")
def sched():
    return make_schedule("karras-like", 16, 0.02, 8.0)


@pytest.fixture(scope="module")
def analytic_cfg(sched):
    return SamplerConfig(schedule=sched)


@pytest.fixture(scope="module")
def cfg_source():
    return guided_source(AnalyticSource(preset("imbalanced2d")), None, GuidanceConfig(w=1.5))


class TestBottomK:
    def test_keeps_lowest_scores_in_ascending_order(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([0.9, 0.1, 0.5, 0.3]),
            PoolBuildConfig(n_candidates_per_class=4, n_f=2, seed=7),
            [1],
        )
        np.testing.assert_allclose([r.quality_score for r in pool.records], [0.1, 0.3], rtol=1e-6)
        # candidate indices 1 and 3 of the deterministic build batch
        assert [r.seed for r in pool.records] == [derive_seed(7, 1, 1), derive_seed(7, 1, 3)]

    def test_ties_break_by_candidate_order(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([0.5, 0.1, 0.1, 0.9]),
            PoolBuildConfig(n_candidates_per_class=4, n_f=2, seed=7),
            [1],
        )
        assert [r.seed for r in pool.records] == [derive_seed(7, 1, 1), derive_seed(7, 1, 2)]

    def test_nan_scores_excluded(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([np.nan, 0.2, np.nan, 0.1]),
            PoolBuildConfig(n_candidates_per_class=4, n_f=2, seed=7),
            [1],
        )
        np.testing.assert_allclose([r.quality_score for r in pool.records], [0.1, 0.2], rtol=1e-6)

    def test_too_few_finite_candidates_fails(self, cfg_source, analytic_cfg):
        with pytest.raises(PoolBuildFailedError):
            build_pool(
                cfg_source,
                analytic_cfg,
                preset_scorer([np.nan, 0.2, np.nan, np.inf]),
                PoolBuildConfig(n_candidates_per_class=4, n_f=2, seed=7),
                [1],
            )

    def test_all_nan_fails(self, cfg_source, analytic_cfg):
        with pytest.raises(PoolBuildFailedError):
            build_pool(
                cfg_source,
                analytic_cfg,
                preset_scorer([np.nan] * 4),
                PoolBuildConfig(n_candidates_per_class=4, n_f=1, seed=7),
                [1],
            )

    def test_n_f_exceeding_candidates_rejected(self, cfg_source, analytic_cfg):
        with pytest.raises(InvalidArgumentError):
            build_pool(
                cfg_source,
                analytic_cfg,
                preset_scorer([0.1]),
                PoolBuildConfig(n_candidates_per_class=1, n_f=3, seed=7),
                [1],
            )

    def test_keeping_everything_is_allowed(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([0.4, 0.2, 0.3]),
            PoolBuildConfig(n_candidates_per_class=3, n_f=3, seed=7),
            [1],
        )
        np.testing.assert_allclose(
            [r.quality_score for r in pool.records], [0.2, 0.3, 0.4], rtol=1e-6
        )

    def test_requires_recorded_outputs(self, cfg_source, sched):
        cfg = SamplerConfig(schedule=sched, record_outputs=False)
        with pytest.raises(InvalidArgumentError):
            build_pool(
                cfg_source,
                cfg,
                preset_scorer([0.1]),
                PoolBuildConfig(n_candidates_per_class=1, n_f=1),
                [1],
            )

    def test_per_class_mode_groups_by_class(self, cfg_source, analytic_cfg):
        calls = []

        def scorer(finals, class_id):
            calls.append(class_id)
            return np.linspace(0.9, 0.1, len(finals)) + 0.001 * class_id

        pool = build_pool(
            cfg_source,
            analytic_cfg,
            scorer,
            PoolBuildConfig(n_candidates_per_class=5, n_f=2, mode="per-class", seed=3),
            [2, 1],
        )
        assert len(pool) == 4
        assert [r.class_id for r in pool.records] == [1, 1, 2, 2]
        for c in (1, 2):
            scores = [r.quality_score for r in pool.records if r.class_id == c]
            assert scores == sorted(scores)
        assert sorted(calls) == [1, 2]


class TestPoolInvariantOnPreset:
    def test_most_retained_failures_end_in_bad_modes(self, cfg_source, analytic_cfg):
        spec = preset("imbalanced2d")
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            ComponentTagScorer(spec),
            PoolBuildConfig(n_candidates_per_class=200, n_f=8, seed=11),
            [1, 2],
        )
        finals = np.stack([r.final_sample for r in pool.records]).astype(np.float64)
        bad = 0
        for x, rec in zip(finals, pool.records):
            resp = responsibilities(spec, x[None], rec.class_id)[0]
            comp_tags = [c.quality_tag for c in spec.classes[rec.class_id]]
            bad += comp_tags[int(np.argmax(resp))] == BAD_TAG
        assert bad / len(pool) >= 0.9


@pytest.fixture(scope="module")
def selection_pool(cfg_source, analytic_cfg):
    return build_pool(
        cfg_source,
        analytic_cfg,
        ComponentTagScorer(preset("imbalanced2d")),
        PoolBuildConfig(n_candidates_per_class=30, n_f=8, seed=13),
        [1, 2],
    )


class TestSelection:
    def test_uniform_coverage(self, selection_pool):
        seeds = np.array([derive_seed(1, i) for i in range(10000)], dtype=np.uint64)
        idx = selection_pool.select_indices(seeds)
        counts = np.bincount(idx, minlength=8)
        assert counts.min() >= 1250 - 150
        assert counts.max() <= 1250 + 150

    def test_selection_is_pure_and_order_free(self, selection_pool):
        seeds = np.array([derive_seed(2, i) for i in range(64)], dtype=np.uint64)
        a = selection_pool.select_indices(seeds)
        b = selection_pool.select_indices(seeds)
        np.testing.assert_array_equal(a, b)
        perm = np.arange(64)[::-1]
        np.testing.assert_array_equal(selection_pool.select_indices(seeds[perm]), a[perm])

    def test_single_record_pool_always_selects_it(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([0.3, 0.1]),
            PoolBuildConfig(n_candidates_per_class=2, n_f=1, seed=5),
            [1],
        )
        seeds = np.arange(100, dtype=np.uint64)
        np.testing.assert_array_equal(pool.select_indices(seeds), np.zeros(100, dtype=np.int64))

    def test_per_class_selection_stays_in_bucket(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            ComponentTagScorer(preset("imbalanced2d")),
            PoolBuildConfig(n_candidates_per_class=20, n_f=3, mode="per-class", seed=5),
            [1, 2],
        )
        seeds = np.array([derive_seed(9, i) for i in range(50)], dtype=np.uint64)
        cls = np.array([1, 2] * 25)
        idx = pool.select_indices(seeds, cls)
        for i, c in zip(idx, cls):
            assert pool.records[i].class_id == c

    def test_per_class_needs_classes(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            ComponentTagScorer(preset("imbalanced2d")),
            PoolBuildConfig(n_candidates_per_class=20, n_f=3, mode="per-class", seed=5),
            [1],
        )
        seeds = np.arange(4, dtype=np.uint64)
        with pytest.raises(NotFoundError):
            pool.select_indices(seeds, None)
        with pytest.raises(NotFoundError):
            pool.select_indices(seeds, np.array([3, 3, 3, 3]))

    def test_negative_output_matches_bound_record(self, selection_pool):
        seed = derive_seed(4, 2, 0)
        idx = selection_pool.select_indices(np.array([seed], dtype=np.uint64))
        for step in (0, 7, 15):
            v = selection_pool.replay_outputs(idx, step)[0]
            np.testing.assert_array_equal(
                v, selection_pool.records[int(idx[0])].denoiser_outputs[step].astype(np.float64)
            )

    def test_replay_returns_float64(self, selection_pool):
        out = selection_pool.replay_outputs(np.array([0, 3]), 5)
        assert out.dtype == np.float64
        assert out.shape == (2, 2)


class TestConstructorValidation:
    def make_records(self, cfg_source, analytic_cfg, scores):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer(scores),
            PoolBuildConfig(n_candidates_per_class=len(scores), n_f=len(scores), seed=1),
            [1],
        )
        return list(pool.records)

    def test_unsorted_rejected(self, cfg_source, analytic_cfg):
        recs = self.make_records(cfg_source, analytic_cfg, [0.1, 0.2, 0.3])
        with pytest.raises(InvalidArgumentError):
            FailurePool(recs[::-1], "global", 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FailurePool([], "global", 0, 0)

    def test_unknown_mode_rejected(self, cfg_source, analytic_cfg):
        recs = self.make_records(cfg_source, analytic_cfg, [0.1])
        with pytest.raises(InvalidArgumentError):
            FailurePool(recs, "sideways", 0, 0)

    def test_missing_outputs_rejected(self, cfg_source, analytic_cfg):
        recs = self.make_records(cfg_source, analytic_cfg, [0.1])
        sched = make_schedule("karras-like", 16, 0.02, 8.0)
        bare = sample_batch(
            AnalyticSource(preset("imbalanced2d")),
            SamplerConfig(schedule=sched, record_outputs=False),
            1,
            [1],
            1,
        )
        with pytest.raises(InvalidArgumentError):
            FailurePool([bare[0].with_score(0.0)], "global", 0, 0)

    def test_per_class_requires_grouping(self, cfg_source, analytic_cfg):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            ComponentTagScorer(preset("imbalanced2d")),
            PoolBuildConfig(n_candidates_per_class=4, n_f=2, mode="per-class", seed=1),
            [1, 2],
        )
        interleaved = [pool.records[i] for i in (0, 2, 1, 3)]
        with pytest.raises(InvalidArgumentError):
            FailurePool(interleaved, "per-class", 0, 0)


class TestBuildConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidArgumentError):
            PoolBuildConfig(n_candidates_per_class=0)
        with pytest.raises(InvalidArgumentError):
            PoolBuildConfig(n_candidates_per_class=4, n_f=0)
        with pytest.raises(InvalidArgumentError):
            PoolBuildConfig(n_candidates_per_class=4, mode="bogus")


class TestCompatibility:
    def test_schedule_and_dim_checked(self, cfg_source, analytic_cfg, sched):
        pool = build_pool(
            cfg_source,
            analytic_cfg,
            preset_scorer([0.1, 0.2]),
            PoolBuildConfig(n_candidates_per_class=2, n_f=1, seed=1),
            [1],
        )
        pool.check_compatible(sched, 2)
        with pytest.raises(IncompatiblePoolError):
            pool.check_compatible(make_schedule("karras-like", 32, 0.02, 8.0), 2)
        with pytest.raises(IncompatiblePoolError):
            pool.check_compatible(make_schedule("karras-like", 16, 0.02, 9.0), 2)
        with pytest.raises(IncompatiblePoolError):
            pool.check_compatible(sched, 3)


@pytest.fixture(scope="module")
def io_pool(cfg_source):
    sched = make_schedule("karras-like", 128, 0.02, 8.0)
    return build_pool(
        cfg_source,
        SamplerConfig(schedule=sched),
        ComponentTagScorer(preset("imbalanced2d")),
        PoolBuildConfig(n_candidates_per_class=20, n_f=8, seed=21),
        [1],
    )


class TestPoolIO:
    def test_round_trip_preserves_everything(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        loaded = load_pool(p)
        assert loaded == io_pool
        assert loaded.mode == io_pool.mode
        assert loaded.schedule_hash == io_pool.schedule_hash
        assert loaded.source_hash == io_pool.source_hash

    def test_resave_is_byte_identical(self, io_pool, tmp_path):
        a, b = tmp_path / "a.fmpl", tmp_path / "b.fmpl"
        save_pool(io_pool, a)
        save_pool(load_pool(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_exact_file_size(self, io_pool, tmp_path):
        # header 35 + 8 records of (30 + 4 * (129*2 + 128*2)) bytes
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        assert os.path.getsize(p) == 16723

    def test_bad_magic(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(raw)
        with pytest.raises(MalformedPoolError) as ei:
            load_pool(p)
        assert ei.value.offset == 0

    def test_bad_version(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(raw)
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_bad_mode_byte(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = bytearray(p.read_bytes())
        raw[6] = 7
        p.write_bytes(raw)
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "pool.fmpl"
        p.write_bytes(b"FMPL\x01\x00")
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_truncated_record(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_trailing_bytes(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_corrupt_inner_record_magic(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = bytearray(p.read_bytes())
        raw[35:39] = b"XXXX"
        p.write_bytes(raw)
        with pytest.raises(MalformedPoolError):
            load_pool(p)

    def test_header_record_shape_mismatch(self, io_pool, tmp_path):
        p = tmp_path / "pool.fmpl"
        save_pool(io_pool, p)
        raw = bytearray(p.read_bytes())
        # dimension field of the pool header
        raw[15:19] = (3).to_bytes(4, "little")
        p.write_bytes(raw)
        with pytest.raises(MalformedPoolError):
            load_pool(p)
