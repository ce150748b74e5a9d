"""End-to-end pipeline stages, artifact layout, determinism, sweeps, pairs."""

import gc
import json
import shlex
import shutil
import sys
import tracemalloc
import weakref
from xml.dom import minidom

import numpy as np
import pytest

from famelab.config import ExperimentConfig, SweepSpec
from famelab.denoiser import MlpDenoiser, TrainConfig, save_checkpoint
from famelab.errors import DivergedError, InvalidArgumentError, PipelineStageError
from famelab.guidance import GuidanceConfig, guided_source
from famelab.metrics import ComponentTagScorer
from famelab import pipeline, sampler
from famelab.pipeline import Experiment, compare_paired, run_pipeline, run_sweep
from famelab.plots import mode_scatter_svg
from famelab.sampler import sample_batch
from famelab.schedule import load_trajectories, trajectory_dtype


def base_config(tmp_path, **over):
    defaults = dict(
        name="run",
        dataset="imbalanced2d",
        source="analytic",
        schedule_kind="karras-like",
        n_steps=24,
        sigma_min=0.02,
        sigma_max=8.0,
        guidance=GuidanceConfig(w=1.5, f=0.02, tau=0.3),
        pool_candidates=40,
        pool_n_f=4,
        n_per_class=60,
        classes=(1, 2),
        seed=5,
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(over)
    return ExperimentConfig(**defaults)


# enough training for a neural run to sample and score, fast enough for a test
TINY_TRAIN = TrainConfig(steps=20, batch_size=32)


class TestRunPipeline:
    def test_artifact_layout(self, tmp_path):
        cfg = base_config(tmp_path)
        report = run_pipeline(cfg)
        root = tmp_path / "out" / "run"
        for rel in (
            "config.echo",
            "dataset.json",
            "pool.fmpl",
            "reports/class_quality.csv",
            "reports/summary.json",
            "reports/report.txt",
            "plots/modes.svg",
            "trajectories/class_1.traj",
            "trajectories/class_2.traj",
        ):
            assert (root / rel).exists(), rel
        assert not (root / "FAILED").exists()
        assert report.frechet < 1.0
        assert len(report.class_reports) == 2

    def test_scatter_file_is_mode_scatter_svg(self, tmp_path):
        # write_report writes the canvas part by part: the same text
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        root = tmp_path / "out" / "run"
        exp = Experiment(cfg)
        gen = np.concatenate(
            [load_trajectories(root / "trajectories" / f"class_{c}.traj")["states"][:, -1] for c in (1, 2)]
        ).astype(np.float64)
        ref = np.concatenate([exp.references[c] for c in (1, 2)])
        assert (root / "plots" / "modes.svg").read_text() == mode_scatter_svg(exp.spec, ref, gen, title="run")

    def test_no_pool_artifact_when_f_zero(self, tmp_path):
        cfg = base_config(tmp_path, guidance=GuidanceConfig(w=1.5, f=0.0))
        run_pipeline(cfg)
        assert not (tmp_path / "out" / "run" / "pool.fmpl").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        root = tmp_path / "out" / "run"
        files = [
            "reports/class_quality.csv",
            "reports/summary.json",
            "pool.fmpl",
            "plots/modes.svg",
            "trajectories/class_1.traj",
        ]
        first = {f: (root / f).read_bytes() for f in files}
        run_pipeline(cfg)
        for f in files:
            assert (root / f).read_bytes() == first[f], f

    def test_summary_echoes_config(self, tmp_path):
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        summary = json.loads((tmp_path / "out" / "run" / "reports" / "summary.json").read_text())
        assert summary["config"]["seed"] == 5
        assert summary["config"]["guidance"]["f"] == 0.02
        assert "mean_score" in summary["report"]

    def test_analytic_balanced_all_top_tier(self, tmp_path):
        cfg = base_config(
            tmp_path,
            dataset="balanced2d",
            guidance=GuidanceConfig(w=1.0, f=0.0),
            # trajectories start from sigma_max * N(0, I) rather than the
            # exactly noised data, which biases endpoint means by about
            # ring_radius * mode_std / sigma_max; sigma_max=20 keeps that
            # bias well under the 0.05 budget (measured pooled 0.009)
            sigma_max=20.0,
            n_steps=48,
            n_per_class=400,
            classes=(1, 2, 3),
        )
        report = run_pipeline(cfg)
        assert report.frechet < 0.05
        assert all(c.tier == "top" for c in report.class_reports)

    def test_failed_stage_writes_marker(self, tmp_path):
        cfg = base_config(tmp_path, dataset="nonexistent")
        with pytest.raises(PipelineStageError) as ei:
            run_pipeline(cfg)
        assert ei.value.stage == "dataset"
        marker = (tmp_path / "out" / "run" / "FAILED").read_text()
        assert "dataset" in marker

    def test_marker_cleared_on_successful_rerun(self, tmp_path):
        bad = base_config(tmp_path, dataset="nonexistent")
        with pytest.raises(PipelineStageError):
            run_pipeline(bad)
        run_pipeline(base_config(tmp_path))
        assert not (tmp_path / "out" / "run" / "FAILED").exists()

    @pytest.mark.parametrize(
        "over",
        [dict(classes=(1, 99)), dict(pool_candidates=2, pool_n_f=5), dict(n_per_class=2)],
        ids=["unknown-class", "pool-n-f", "n-per-class"],
    )
    def test_rejected_config_keeps_last_marker(self, tmp_path, over):
        # a config refused before any file is written leaves the last run's
        # marker as it was, in run_pipeline and run_sweep alike
        with pytest.raises(PipelineStageError):
            run_pipeline(base_config(tmp_path, dataset="nonexistent"))
        marker = tmp_path / "out" / "run" / "FAILED"
        before = marker.read_bytes()
        for run in (run_pipeline, lambda cfg: run_sweep(cfg, SweepSpec("w", (1.5, 2.0)))):
            with pytest.raises(InvalidArgumentError):
                run(base_config(tmp_path, **over))
            assert marker.read_bytes() == before
        assert [p.name for p in marker.parent.iterdir()] == ["FAILED"]

    def test_unknown_class_is_invalid_before_any_file(self, tmp_path):
        cfg = base_config(tmp_path, classes=(1, 99))
        with pytest.raises(InvalidArgumentError, match="class 99"):
            run_pipeline(cfg)
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("mode, limit", [("global", 6), ("per-class", 2)])
    def test_pool_size_checked_at_its_boundary(self, tmp_path, mode, limit):
        # 2 candidates in each of 3 classes: a global pool keeps up to all
        # 6, a per-class pool up to the 2 of its class
        def config(n_f):
            return base_config(
                tmp_path, pool_candidates=2, pool_n_f=n_f, pool_mode=mode, classes=(1, 2, 3)
            )

        assert Experiment(config(limit)).pool_cfg.n_f == limit
        with pytest.raises(InvalidArgumentError, match="n_f"):
            Experiment(config(limit + 1))
        assert not (tmp_path / "out").exists()

    def test_pool_built_from_the_experiments_build_config(self, tmp_path, monkeypatch):
        # more slots than one class's candidates is fine in global mode: 10
        # of 2 per class over all 8 classes; the build reuses pool_cfg
        cfg = base_config(tmp_path, n_steps=4, pool_candidates=2, pool_n_f=10, classes=None)
        exp = Experiment(cfg)
        seen = []

        def build_pool(source, sampler_cfg, scorer, build_cfg, class_ids):
            seen.append(build_cfg)
            return real(source, sampler_cfg, scorer, build_cfg, class_ids)

        real = pipeline.build_pool
        monkeypatch.setattr(pipeline, "build_pool", build_pool)
        assert len(exp.build_pool(cfg.guidance)) == 10
        assert len(seen) == 1 and seen[0] is exp.pool_cfg

    def test_checkpoint_short_of_class_tokens_fails_train_stage(self, tmp_path):
        # a 2-class checkpoint on imbalanced2d (classes 1..8) is refused
        # before sampling, with the cause named
        ckpt = tmp_path / "two.mlpd"
        save_checkpoint(MlpDenoiser(2, 2, seed=0), ckpt)
        cfg = base_config(tmp_path, source="neural", checkpoint=str(ckpt), classes=None)
        with pytest.raises(PipelineStageError) as ei:
            run_pipeline(cfg)
        assert ei.value.stage == "train"
        assert isinstance(ei.value.__cause__, InvalidArgumentError)
        assert "stage: train" in (tmp_path / "out" / "run" / "FAILED").read_text()
        assert not (tmp_path / "out" / "run" / "trajectories" / "class_1.traj").exists()
        # the classes it has tokens for are fine
        ok = Experiment(base_config(tmp_path, name="ok", source="neural", checkpoint=str(ckpt)))
        assert ok.base.model.n_classes == 2

    def test_pool_loaded_from_path(self, tmp_path):
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        pool_file = tmp_path / "out" / "run" / "pool.fmpl"
        reused = base_config(tmp_path, name="reuse", pool_path=str(pool_file))
        run_pipeline(reused)
        # loaded, not rebuilt: no new pool artifact in the reuse run, and the
        # same records replayed over the same seeds give the same report
        assert not (tmp_path / "out" / "reuse" / "pool.fmpl").exists()
        reports = [tmp_path / "out" / name / "reports" / "class_quality.csv" for name in ("run", "reuse")]
        assert reports[0].read_bytes() == reports[1].read_bytes()


    @pytest.mark.parametrize("source", ["analytic", "neural"])
    def test_saving_trajectories_changes_no_other_file(self, tmp_path, source):
        """A run that saves no trajectories samples final states only
        (`sampler.sample_finals`) and writes the same bytes as one that
        samples whole trajectories and saves them; the configs differ only
        in save_trajectories, which summary.json echoes."""
        files = ("reports/summary.json", "reports/class_quality.csv", "reports/report.txt")
        files += ("plots/modes.svg", "pool.fmpl")
        root = tmp_path / "out" / "run"
        written = {}
        for save in (True, False):
            shutil.rmtree(root, ignore_errors=True)
            run_pipeline(base_config(tmp_path, source=source, train=TINY_TRAIN, save_trajectories=save))
            assert (root / "trajectories").is_dir() == save
            written[save] = {rel: (root / rel).read_bytes() for rel in files}
        echo = b'"save_trajectories": true'
        assert echo in written[True]["reports/summary.json"]
        written[True]["reports/summary.json"] = written[True]["reports/summary.json"].replace(
            echo, b'"save_trajectories": false'
        )
        assert written[True] == written[False]

    def test_unsaved_run_makes_only_the_pool_batch(self, tmp_path, monkeypatch):
        """Without saved trajectories the pool's candidates are the one
        trajectory batch a run makes, and it is not alive at evaluation."""
        made, alive = track_batches(monkeypatch)
        run_pipeline(base_config(tmp_path, save_trajectories=False))
        assert len(made) == 1
        assert alive == [0]


def snapshot(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestStreamedTrajectories:
    """`Experiment.sample` with save_trajectories writes each chunk's records
    when the chunk ends, through one chunk-sized buffer."""

    @pytest.mark.parametrize("source", ["analytic", "neural"])
    def test_files_are_sample_batch_blocks(self, tmp_path, source):
        # 3 x 700 trajectories: chunks of 1024 straddle classes 1|2 and 2|3
        cfg = base_config(tmp_path, source=source, train=TINY_TRAIN, classes=(1, 2, 3), n_per_class=700)
        exp = Experiment(cfg)
        samples = exp.sample(cfg.guidance, save_trajectories=True)
        source = guided_source(exp.base, exp.pool(cfg.guidance), cfg.guidance)
        batch = sample_batch(source, *exp._sampling())
        root = tmp_path / "out" / "run"
        assert sorted(p.name for p in (root / "trajectories").iterdir()) == [
            "class_1.traj", "class_2.traj", "class_3.traj"
        ]
        assert not list(root.glob("*.part"))
        for b, c in enumerate((1, 2, 3)):
            block = batch[b * 700 : (b + 1) * 700]
            assert (root / "trajectories" / f"class_{c}.traj").read_bytes() == block.tobytes()
            assert samples[c].dtype == np.float64
            assert samples[c].tobytes() == block["states"][:, -1].astype(np.float64).tobytes()

    def test_failure_in_a_later_chunk_leaves_trajectories_as_they_were(self, tmp_path, monkeypatch):
        """The second chunk diverges after the first was written: the run
        fails stage sample and leaves no file of its own, neither in a new
        run directory nor over an earlier run's trajectories."""
        real = sampler._integrate_chunk
        chunks, written = [], []

        def integrate(source, cfg, x, neg, class_ids, index, start, stop, record=None):
            chunks.append(start == 0)
            if start == 0 and sum(chunks) == 2:
                written.append(sum(f.stat().st_size for f in (tmp_path / "out").rglob("*.part")))
                raise DivergedError(int(class_ids[0]), int(index[0]), 0)
            return real(source, cfg, x, neg, class_ids, index, start, stop, record)

        def config(**over):
            return base_config(tmp_path, guidance=GuidanceConfig(w=1.5), n_per_class=700, **over)

        run_pipeline(config(name="earlier", seed=6))
        root = tmp_path / "out" / "earlier"
        before = snapshot(root / "trajectories")
        assert len(before) == 2
        monkeypatch.setattr(sampler, "_integrate_chunk", integrate)
        for name in ("new", "earlier"):
            chunks.clear()
            with pytest.raises(PipelineStageError) as ei:
                run_pipeline(config(name=name))
            assert ei.value.stage == "sample"
            assert isinstance(ei.value.__cause__, DivergedError)
            assert sum(chunks) == 2
            run_dir = tmp_path / "out" / name
            assert (run_dir / "FAILED").read_text().startswith("stage: sample\n")
            assert not list(run_dir.glob("*.part"))
        assert not (tmp_path / "out" / "new" / "trajectories").exists()
        assert snapshot(root / "trajectories") == before
        # the first chunk's records were in their part files when the second failed
        assert written == [1024 * trajectory_dtype(24, 2).itemsize] * 2


class TestSampleMemory:
    """Saved trajectories are written a chunk at a time, so a run holds one
    chunk of records (1 MiB at T=64 in 2-D) whatever its size.  Sampling
    4,096 trajectories rather than 1,024 raised the tracemalloc peak by
    3.2 MiB of records while the whole batch was held, and by 0.14 MiB a
    chunk at a time."""

    def peak(self, tmp_path, n_per_class):
        cfg = base_config(
            tmp_path, name=f"n{n_per_class}", n_steps=64, sigma_min=0.01, sigma_max=10.0, n_per_class=n_per_class
        )
        exp = Experiment(cfg)
        exp.pool(cfg.guidance)
        tracemalloc.start()
        try:
            exp.sample(cfg.guidance, save_trajectories=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_run(self, tmp_path):
        self.peak(tmp_path, 2)
        small, large = self.peak(tmp_path, 512), self.peak(tmp_path, 2048)
        assert large - small < 2**20, (small, large)


def track_batches(monkeypatch):
    """(made, alive): a weak reference to every trajectory batch the sampler
    makes, and how many of them are alive at each `Experiment.evaluate`."""
    made, alive = [], []
    new_trajectories = sampler.new_trajectories
    evaluate = Experiment.evaluate

    def tracked(*args):
        batch = new_trajectories(*args)
        made.append(weakref.ref(batch))
        return batch

    def counted(self, samples):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        return evaluate(self, samples)

    monkeypatch.setattr(sampler, "new_trajectories", tracked)
    monkeypatch.setattr(Experiment, "evaluate", counted)
    return made, alive


class TestRunSweep:
    def test_sweep_csv_shape(self, tmp_path):
        cfg = base_config(tmp_path, n_per_class=40)
        results = run_sweep(cfg, SweepSpec("f", (0.0, 0.02)))
        assert len(results) == 2
        assert all(r is not None for _, r in results)
        csv = (tmp_path / "out" / "run" / "reports" / "sweep_f.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "value,frechet,precision,recall,mean_score,bad_mode_fraction,status"
        assert len(lines) == 3
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_single_value_sweep_matches_pipeline(self, tmp_path):
        cfg = base_config(tmp_path, n_per_class=40)
        [(value, swept)] = run_sweep(cfg, SweepSpec("f", (0.02,)))
        direct = run_pipeline(base_config(tmp_path, name="direct", n_per_class=40))
        assert value == 0.02
        assert swept.mean_score == direct.mean_score
        assert swept.frechet == direct.frechet
        assert swept.bad_mode_fraction == direct.bad_mode_fraction

    @pytest.mark.parametrize("values", [(0.02,), (0.0, 0.02)])
    def test_no_batch_alive_while_rows_are_evaluated(self, tmp_path, monkeypatch, values):
        """A row is evaluated from its final states alone: the rows make no
        trajectory batch, and the pool's candidates, the one batch made, are
        no longer alive then, also when the sweep has one row."""
        made, alive = track_batches(monkeypatch)
        run_sweep(base_config(tmp_path), SweepSpec("f", values))
        assert len(made) == 1
        assert alive == [0] * len(values)

    def test_sampling_failure_fails_stage_sample(self, tmp_path, monkeypatch):
        """An error sampling raises that is not a FamelabError fails stage
        sample, in run_sweep as in compare_paired."""

        def broken(*args):
            raise RuntimeError("integrator broke")

        monkeypatch.setattr(sampler, "_integrate_chunk", broken)
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5))
        b = base_config(tmp_path, name="b", guidance=GuidanceConfig(w=2.0))
        sweep = SweepSpec("w", (1.5, 2.0))
        for run, run_dir in ((lambda: run_sweep(a, sweep), "a"), (lambda: compare_paired(a, b), "a_vs_b")):
            with pytest.raises(PipelineStageError) as ei:
                run()
            assert ei.value.stage == "sample"
            assert isinstance(ei.value.__cause__, RuntimeError)
            assert (tmp_path / "out" / run_dir / "FAILED").read_text().startswith("stage: sample\n")

    def test_evaluation_failure_fails_stage_evaluate(self, tmp_path, monkeypatch):
        """An error evaluating raises that is not a FamelabError fails stage
        evaluate, in run_pipeline, run_sweep and compare_paired alike."""

        def broken(*args, **kwargs):
            raise RuntimeError("metrics broke")

        monkeypatch.setattr(pipeline, "evaluate", broken)
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5))
        b = base_config(tmp_path, name="b", guidance=GuidanceConfig(w=2.0))
        sweep = SweepSpec("w", (1.5, 2.0))
        for run, run_dir in (
            (lambda: run_pipeline(a), "a"),
            (lambda: run_sweep(a, sweep), "a"),
            (lambda: compare_paired(a, b), "a_vs_b"),
        ):
            with pytest.raises(PipelineStageError) as ei:
                run()
            assert ei.value.stage == "evaluate"
            assert isinstance(ei.value.__cause__, RuntimeError)
            assert (tmp_path / "out" / run_dir / "FAILED").read_text().startswith("stage: evaluate\n")

    def test_evaluation_famelab_error_fails_only_its_row(self, tmp_path, monkeypatch):
        evaluate = pipeline.evaluate
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise InvalidArgumentError("first row unscorable")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate", first_fails)
        results = run_sweep(base_config(tmp_path, n_per_class=30), SweepSpec("w", (1.5, 2.0)))
        assert results[0] == (1.5, None)
        assert results[1][1] is not None
        root = tmp_path / "out" / "run"
        csv = (root / "reports" / "sweep_w.csv").read_text().splitlines()
        assert csv[1].endswith(",failed: InvalidArgumentError")
        assert csv[2].endswith(",ok")
        assert not (root / "FAILED").exists()

    def test_rows_share_pool_and_seeds(self, tmp_path):
        # f=0 row must be identical to a plain CFG pipeline run: same seeds,
        # pool ignored
        cfg = base_config(tmp_path, n_per_class=40)
        results = dict(run_sweep(cfg, SweepSpec("f", (0.0, 0.02))))
        cfg_plain = base_config(
            tmp_path, name="plain", n_per_class=40, guidance=GuidanceConfig(w=1.5, f=0.0)
        )
        direct = run_pipeline(cfg_plain)
        assert results[0.0].mean_score == direct.mean_score
        assert results[0.0].frechet == direct.frechet

    def test_failed_row_continues(self, tmp_path):
        # w = 1e300 is a valid setting whose trajectories diverge; that row
        # is recorded as failed while the other rows still complete
        cfg = base_config(tmp_path, n_per_class=30)
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_sweep(cfg, SweepSpec("w", (1.5, 1e300, 2.0)))
        assert results[0][1] is not None
        assert results[1][1] is None
        assert results[2][1] is not None
        csv = (tmp_path / "out" / "run" / "reports" / "sweep_w.csv").read_text()
        assert csv.split("\n")[2].endswith("failed: DivergedError")


    def test_value_column_keeps_nine_digits(self, tmp_path):
        # values that agree to six significant digits still get their own labels
        cfg = base_config(tmp_path, n_per_class=30)
        run_sweep(cfg, SweepSpec("f", (0.01234561, 0.01234562)))
        csv = (tmp_path / "out" / "run" / "reports" / "sweep_f.csv").read_text()
        assert [line.split(",")[0] for line in csv.strip().split("\n")[1:]] == ["0.01234561", "0.01234562"]


class TestComparePaired:
    def test_identical_configs_zero_deltas(self, tmp_path):
        cfg = base_config(tmp_path, n_per_class=30)
        result = compare_paired(cfg, base_config(tmp_path, name="runb", n_per_class=30))
        assert result.n_pairs == 60
        assert result.mean_delta == 0.0
        assert result.fraction_improved == 0.0

    def test_pair_count_and_artifacts(self, tmp_path):
        a = base_config(tmp_path, name="cfgrun", guidance=GuidanceConfig(w=1.5, f=0.0), n_per_class=30)
        b = base_config(tmp_path, name="famerun", n_per_class=30)
        result = compare_paired(a, b)
        assert result.n_pairs == 60
        root = tmp_path / "out" / "cfgrun_vs_famerun"
        pairs = (root / "reports" / "pairs.csv").read_text().strip().split("\n")
        assert pairs[0] == "class,index,score_a,score_b,delta"
        assert len(pairs) == 61
        assert (root / "plots" / "compare.svg").exists()

    def test_svg_text_is_escaped(self, tmp_path):
        # names become SVG text: markup characters in them must not break
        # the XML of either plot
        a = base_config(tmp_path, name="a&b<c>", guidance=GuidanceConfig(w=1.5), n_per_class=20)
        b = base_config(tmp_path, name="d<e>&f", guidance=GuidanceConfig(w=2.0), n_per_class=20)
        run_pipeline(a)
        compare_paired(a, b)
        plots = (
            (tmp_path / "out" / a.name / "plots" / "modes.svg", [a.name]),
            (tmp_path / "out" / f"{a.name}_vs_{b.name}" / "plots" / "compare.svg", [a.name, b.name]),
        )
        for path, names in plots:
            texts = [t.firstChild.data for t in minidom.parse(str(path)).getElementsByTagName("text")]
            assert all(name in texts for name in names), path

    def test_no_batch_alive_while_sides_are_evaluated(self, tmp_path, monkeypatch):
        # the sides make no trajectory batch, and the pool's candidates are
        # no longer alive when either side is evaluated
        made, alive = track_batches(monkeypatch)
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5))
        compare_paired(a, base_config(tmp_path, name="b"))
        assert len(made) == 1
        assert alive == [0, 0]

    def test_scores_each_sample_once(self, tmp_path, monkeypatch):
        # each side's samples are scored once per class, and pairs.csv and
        # the deltas reuse those scores
        calls = []
        score = ComponentTagScorer.__call__

        def counted(self, samples, class_id=None):
            calls.append(class_id)
            return score(self, samples, class_id)

        monkeypatch.setattr(ComponentTagScorer, "__call__", counted)
        a = base_config(tmp_path, name="a", n_steps=4, n_per_class=20, guidance=GuidanceConfig(w=1.5))
        b = base_config(tmp_path, name="b", n_steps=4, n_per_class=20, guidance=GuidanceConfig(w=2.0))
        compare_paired(a, b)
        assert sorted(calls) == [1, 1, 2, 2]

    def test_failing_scorer_fails_stage_evaluate(self, tmp_path):
        # a scorer that fails on the samples fails stage evaluate, in
        # compare_paired as in run_pipeline
        failing = f"external:{shlex.quote(sys.executable)} -c 'raise SystemExit(3)'"
        over = dict(n_steps=4, n_per_class=20, scorer=failing)
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5), **over)
        b = base_config(tmp_path, name="b", guidance=GuidanceConfig(w=2.0), **over)
        for run, run_dir in ((lambda: run_pipeline(a), "a"), (lambda: compare_paired(a, b), "a_vs_b")):
            with pytest.raises(PipelineStageError) as ei:
                run()
            assert ei.value.stage == "evaluate"
            assert "stage: evaluate" in (tmp_path / "out" / run_dir / "FAILED").read_text()

    def test_sides_match_their_pipeline_runs(self, tmp_path):
        # FaME against CFG shares the steps before replay begins; each side
        # must still report what its own run reports
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5), n_per_class=30)
        b = base_config(tmp_path, name="b", n_per_class=30)
        result = compare_paired(a, b)
        assert result.report_a.to_dict() == run_pipeline(a).to_dict()
        assert result.report_b.to_dict() == run_pipeline(b).to_dict()

    def test_failing_side_fails_stage_sample(self, tmp_path):
        a = base_config(tmp_path, name="a", guidance=GuidanceConfig(w=1.5), n_per_class=20)
        b = base_config(tmp_path, name="b", guidance=GuidanceConfig(w=1e300), n_per_class=20)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PipelineStageError) as ei:
            compare_paired(a, b)
        assert ei.value.stage == "sample"
        failed = (tmp_path / "out" / "a_vs_b" / "FAILED").read_text()
        assert failed == f"stage: sample\ncause: {ei.value.cause!r}\n"
        assert failed.startswith("stage: sample\ncause: DivergedError(")

    def test_differing_non_guidance_fields_rejected(self, tmp_path):
        a = base_config(tmp_path, n_per_class=30)
        b = base_config(tmp_path, n_per_class=31)
        with pytest.raises(InvalidArgumentError):
            compare_paired(a, b)
        c = base_config(tmp_path, n_per_class=30, seed=6)
        with pytest.raises(InvalidArgumentError):
            compare_paired(a, c)

    def test_sides_share_initial_noise(self, tmp_path):
        # identical guidance must reproduce identical per-pair scores, which
        # can only happen when the initial noise matches pairwise
        cfg = base_config(tmp_path, n_per_class=25)
        result = compare_paired(cfg, base_config(tmp_path, name="runb", n_per_class=25))
        root = tmp_path / "out" / "run_vs_runb"
        rows = (root / "reports" / "pairs.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            _, _, sa, sb, delta = row.split(",")
            assert sa == sb
            assert float(delta) == 0.0
