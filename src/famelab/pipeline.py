"""Experiment stages: dataset -> (train) -> pool -> sample -> evaluate.

Every stage is deterministic under the config seed.  Stage streams are
separated by fixed keys folded into the seed chain, so adding samples to one
stage never perturbs another.  A failed stage leaves whatever artifacts were
already written plus a FAILED marker naming the stage and cause.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, SweepSpec, config_to_dict
from .denoiser import load_checkpoint, save_checkpoint, train
from .errors import (
    FamelabError,
    IncompatiblePoolError,
    InvalidArgumentError,
    NotFoundError,
    PipelineStageError,
)
from .gmm import PRESET_NAMES, exact_sampler, load_spec, preset, save_spec
from .guidance import GuidanceConfig, guided_source
from .metrics import (
    EvalReport,
    check_sample_size,
    class_report_csv,
    evaluate,
    make_scorer,
    render_report,
)
from .plots import _mode_scatter, side_by_side_svg
from .pool import PoolBuildConfig, build_pool, load_pool, save_pool
from .sampler import AnalyticSource, NeuralSource, SamplerConfig, _jobs, _record_chunks, sample_finals
from .schedule import derive_seed, make_schedule

# stage stream keys; distinct constants keep the seed chains disjoint
_POOL_KEY = 101
_SAMPLE_KEY = 102
_REF_KEY = 103


def _staged(stage_name):
    """Turn an Experiment method into a lazily resolved, cached attribute whose
    failures are reported as stage `stage_name`."""

    def decorate(fn):
        @functools.wraps(fn)
        def resolve(self):
            return self.stage(stage_name, lambda: fn(self))

        return functools.cached_property(resolve)

    return decorate


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Experiment:
    """The setup one config resolves to, shared by every stage and subcommand.

    Owns the run directory out_dir/name and the stage runner; a directory
    is created only when a file is written into it.  The dataset stage (spec
    and schedule) is resolved on construction; a configured class the
    dataset lacks, or a pool_n_f its classes' candidates cannot fill (even
    if this run builds no pool), is then an InvalidArgumentError, raised
    before any file or directory is written or removed.  base, scorer and
    references are resolved on first use, each inside the stage that names
    its failures, so a subcommand pays only for what it touches.  The
    failure pool is built (from pool_cfg) or loaded at most once.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.run_dir = Path(cfg.out_dir) / cfg.name
        self._stale = True
        self.spec, self.schedule = self.stage("dataset", self._dataset)
        self.classes = sorted(self.spec.classes) if cfg.classes is None else list(cfg.classes)
        missing = [c for c in self.classes if c not in self.spec.classes]
        if missing:
            raise InvalidArgumentError(f"class {missing[0]} not in dataset {cfg.dataset!r}")
        self.pool_cfg = PoolBuildConfig(
            cfg.pool_candidates, cfg.pool_n_f, cfg.pool_mode, derive_seed(cfg.seed, _POOL_KEY)
        )
        self.pool_cfg.check_classes(len(self.classes))
        self._pool = None

    def stage(self, name, fn):
        """Run fn as stage `name`: a failure writes the FAILED marker and is
        raised as PipelineStageError; one already raised by a nested stage
        passes through unchanged."""
        try:
            return fn()
        except PipelineStageError:
            raise
        except Exception as exc:
            self._path("FAILED").write_text(f"stage: {name}\ncause: {exc!r}\n")
            raise PipelineStageError(name, exc) from exc

    def _path(self, *parts) -> Path:
        """run_dir/parts, with the directory it goes into created; the first
        call removes the FAILED marker an earlier run left."""
        if self._stale:
            (self.run_dir / "FAILED").unlink(missing_ok=True)
            self._stale = False
        path = self.run_dir.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def _dataset(self):
        cfg = self.cfg
        if cfg.dataset in PRESET_NAMES:
            spec = preset(cfg.dataset)
        elif os.path.exists(cfg.dataset):
            spec = load_spec(cfg.dataset)
        else:
            raise NotFoundError(f"dataset {cfg.dataset!r} is neither a preset nor a file")
        return spec, make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max)

    @_staged("train")
    def base(self):
        if self.cfg.source == "analytic":
            return AnalyticSource(self.spec)
        if self.cfg.checkpoint is not None:
            model = load_checkpoint(self.cfg.checkpoint)
        else:
            model = self.train_model()
        if model.dim != self.spec.dim:
            raise InvalidArgumentError(
                f"checkpoint dimension {model.dim} != dataset dimension {self.spec.dim}"
            )
        if model.n_classes < max(self.classes):
            raise InvalidArgumentError(
                f"checkpoint has class tokens up to {model.n_classes}, "
                f"the run samples class {max(self.classes)}"
            )
        return NeuralSource(model)

    @_staged("evaluate-setup")
    def scorer(self):
        return make_scorer(self.spec, self.cfg.scorer)

    @_staged("evaluate-setup")
    def references(self) -> dict:
        """Exact draws from each class, n_per_class each, on the reference stream."""
        return {
            c: exact_sampler(
                self.spec,
                np.random.default_rng(derive_seed(self.cfg.seed, _REF_KEY, c)),
                class_id=c,
                n=self.cfg.n_per_class,
            )
            for c in self.classes
        }

    def write_dataset(self) -> Path:
        """Write the spec to dataset.json."""
        path = self._path("dataset.json")
        self.stage("dataset", lambda: save_spec(self.spec, path))
        return path

    def train_model(self):
        """Train the MLP denoiser on the dataset and write checkpoint.mlpd."""
        model = train(self.spec, self.cfg.train)
        save_checkpoint(model, self._path("checkpoint.mlpd"))
        return model

    def pool(self, guidance: GuidanceConfig):
        """The failure pool replay under `guidance` uses: None when f = 0,
        otherwise pool_path loaded (its mode must be pool_mode) or a pool
        built, once per experiment."""
        if guidance.f == 0.0:
            return None
        if self._pool is None:
            if self.cfg.pool_path is not None:
                self._pool = self.stage("pool", self._load_pool)
            else:
                self._pool = self.build_pool(guidance)
        return self._pool

    def _load_pool(self):
        pool = load_pool(self.cfg.pool_path)
        if pool.mode != self.cfg.pool_mode:
            raise IncompatiblePoolError(
                f"pool {self.cfg.pool_path} is {pool.mode}, the config asks for {self.cfg.pool_mode}"
            )
        return pool

    def build_pool(self, guidance: GuidanceConfig):
        """Build a pool from CFG candidates at guidance.w on the pool stream
        and write it to pool.fmpl.  A pool built at another w is made with
        `famelab build-pool --w` and loaded through pool_path."""

        def build():
            pool = build_pool(
                guided_source(self.base, None, GuidanceConfig(w=guidance.w)),
                SamplerConfig(schedule=self.schedule, method=self.cfg.method),
                self.scorer,
                self.pool_cfg,
                self.classes,
            )
            save_pool(pool, self._path("pool.fmpl"))
            return pool

        return self.stage("pool", build)

    def _sampling(self):
        """The sampler arguments after the source that every guidance setting
        shares: the sample stream's seed, so every setting sees the same
        initial noise, and n_per_class trajectories per class."""
        cfg = self.cfg
        sampler_cfg = SamplerConfig(schedule=self.schedule, method=cfg.method)
        return sampler_cfg, derive_seed(cfg.seed, _SAMPLE_KEY), self.classes, cfg.n_per_class

    def sample(self, guidance: GuidanceConfig, save_trajectories: bool = False) -> dict:
        """The final states sampled under `guidance` as float64, grouped by
        class like an item of `sample_each`.  With save_trajectories whole
        records, outputs included, are sampled chunk by chunk into one
        chunk-sized buffer, the records `sampler.sample_batch` returns, and
        each chunk's are appended to its classes' class_<c>.traj.part files
        in the run directory when the chunk ends.  The parts replace
        trajectories/class_<c>.traj once every chunk is written, so memory
        holds one chunk of records whatever n_per_class is, and a run that
        fails leaves trajectories/ as it was."""
        if not save_trajectories:
            [samples] = self.sample_each([guidance])
            if isinstance(samples, FamelabError):
                raise samples
            return samples
        source = guided_source(self.base, self.pool(guidance), guidance)
        cfg, *args = self._sampling()
        jobs = _jobs([source], *args)
        parts = {c: self._path(f"class_{c}.traj.part") for c in self.classes}
        finals = {c: [] for c in self.classes}
        try:
            with ExitStack() as stack:
                files = {c: stack.enter_context(open(path, "wb")) for c, path in parts.items()}
                for records in _record_chunks(source, cfg, *jobs):
                    # a class's rows are contiguous in job order
                    cuts = np.flatnonzero(np.diff(records["class_id"])) + 1
                    for block in np.split(records, cuts):
                        c = int(block["class_id"][0])
                        files[c].write(block)
                        finals[c].append(block["states"][:, -1].astype(np.float64))
        except BaseException:
            for path in parts.values():
                path.unlink(missing_ok=True)
            raise
        for c, path in parts.items():
            path.replace(self._path("trajectories", f"class_{c}.traj"))
        return {c: np.concatenate(states) for c, states in finals.items()}

    def sample_each(self, guidances) -> list:
        """For each guidance setting, what sample(guidance) returns or the
        FamelabError it raises; the steps before the settings' guidance
        first differs or any of them replays are integrated once
        (`sampler.sample_finals`)."""
        sources = [guided_source(self.base, self.pool(g), g) for g in guidances]
        finals = sample_finals(sources, *self._sampling())
        return [out if isinstance(out, FamelabError) else dict(self._by_class(out)) for out in finals]

    def _by_class(self, rows):
        n = self.cfg.n_per_class
        return [(c, rows[b * n : (b + 1) * n]) for b, c in enumerate(self.classes)]

    def evaluate(self, samples):
        """Scores of the final samples of each class (one scorer call per
        class) and their report against the reference sets."""
        scores = {c: np.asarray(self.scorer(x, c), dtype=np.float64) for c, x in samples.items()}
        return scores, evaluate(samples, self.references, scores, spec=self.spec)

    def write_report(self, samples, report: EvalReport) -> None:
        """Write class_quality.csv, summary.json and report.txt, and in 2-D
        the scatter of samples over references."""
        self._path("reports", "class_quality.csv").write_text(class_report_csv(report))
        summary = {"config": config_to_dict(self.cfg), "report": report.to_dict()}
        self._path("reports", "summary.json").write_text(_dumps(summary))
        self._path("reports", "report.txt").write_text(render_report(report))
        if self.spec.dim == 2:
            pooled = np.concatenate([samples[c] for c in sorted(samples)])
            refs = self.references
            pooled_ref = np.concatenate([refs[c] for c in sorted(refs)])
            canvas = _mode_scatter(self.spec, pooled_ref, pooled, title=self.cfg.name)
            with open(self._path("plots", "modes.svg"), "w") as fh:
                fh.writelines(canvas.lines())


def run_pipeline(cfg: ExperimentConfig) -> EvalReport:
    exp = Experiment(cfg)
    check_sample_size(cfg.n_per_class, len(exp.classes), exp.spec.dim)
    exp._path("config.echo").write_text(_dumps(config_to_dict(cfg)))
    exp.write_dataset()
    samples = exp.stage("sample", lambda: exp.sample(cfg.guidance, cfg.save_trajectories))

    def evaluate_stage():
        _, report = exp.evaluate(samples)
        exp.write_report(samples, report)
        return report

    return exp.stage("evaluate", evaluate_stage)


_SWEEP_COLUMNS = "value,frechet,precision,recall,mean_score,bad_mode_fraction,status"


def run_sweep(cfg: ExperimentConfig, sweep: SweepSpec) -> list:
    """One sampled+evaluated row per axis value, sharing the dataset, source,
    pool, and per-trajectory seeds; returns [(value, EvalReport | None), ...]
    and writes the table CSV.  The rows are sampled together
    (`Experiment.sample_each`): the steps before their guidance first
    differs or any row replays are integrated once, and each row is
    evaluated from its final states alone.
    A row that fails with a FamelabError is recorded and skipped; any other
    error evaluating a row fails stage evaluate, and a failed stage of the
    shared setup ends the sweep.  Every row's guidance is checked before
    anything is written, and the sample size before anything is sampled."""
    guidances = [replace(cfg.guidance, **{sweep.axis: value}) for value in sweep.values]
    exp = Experiment(cfg)
    check_sample_size(cfg.n_per_class, len(exp.classes), exp.spec.dim)
    # the shared pool is built at the config's own w, also on a w sweep (a
    # pool at another w comes from pool_path); an f sweep from f=0 builds it
    # for its first replaying row, at that same w
    exp.pool(cfg.guidance)

    def evaluate_row(value, samples):
        """The row's CSV line and report; a FamelabError fails this row
        alone (report None), any other error the stage."""
        try:
            if isinstance(samples, FamelabError):
                raise samples
            report = exp.evaluate(samples)[1]
        except PipelineStageError:
            raise
        except FamelabError as exc:
            return f"{value:.9g},,,,,,failed: {type(exc).__name__}", None
        stats = (report.frechet, report.precision, report.recall, report.mean_score, report.bad_mode_fraction)
        return ",".join(f"{v:.9g}" for v in (value, *stats)) + ",ok", report

    sampled = exp.stage("sample", lambda: exp.sample_each(guidances))
    rows = [exp.stage("evaluate", lambda: evaluate_row(v, s)) for v, s in zip(sweep.values, sampled)]
    csv = "\n".join([_SWEEP_COLUMNS] + [line for line, _ in rows]) + "\n"
    exp._path("reports", f"sweep_{sweep.axis}.csv").write_text(csv)
    return [(value, report) for value, (_, report) in zip(sweep.values, rows)]


@dataclass(frozen=True)
class PairedCompareReport:
    n_pairs: int
    mean_delta: float
    median_delta: float
    fraction_improved: float
    report_a: EvalReport
    report_b: EvalReport


def _comparable(a: ExperimentConfig, b: ExperimentConfig) -> bool:
    neutral = GuidanceConfig()
    strip = lambda c: replace(c, guidance=neutral, name="x", out_dir="x")
    return strip(a) == strip(b)


def compare_paired(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> PairedCompareReport:
    """Run two guidance settings over identical per-trajectory seeds (hence
    identical initial noise) and report per-pair score deltas, b minus a.
    The sides are sampled together (`Experiment.sample_each`), so the steps
    before their guidance first differs or either side replays are
    integrated once."""
    if not _comparable(cfg_a, cfg_b):
        raise InvalidArgumentError("compared configs may differ only in guidance")
    exp = Experiment(replace(cfg_a, name=f"{cfg_a.name}_vs_{cfg_b.name}"))
    check_sample_size(cfg_a.n_per_class, len(exp.classes), exp.spec.dim)
    # the pool both sides share is built at b's w when b replays
    exp.pool(cfg_b.guidance)

    def sample():
        finals = exp.sample_each([cfg_a.guidance, cfg_b.guidance])
        for samples in finals:
            if isinstance(samples, FamelabError):
                raise samples
        return finals

    sides = []
    for samples in exp.stage("sample", sample):
        scores, report = exp.stage("evaluate", lambda: exp.evaluate(samples))
        sides.append((samples, scores, report))
    (samples_a, scores_a, report_a), (samples_b, scores_b, report_b) = sides

    def pair_stage():
        lines = ["class,index,score_a,score_b,delta"]
        deltas = []
        for c in exp.classes:
            for i, (x, y) in enumerate(zip(scores_a[c], scores_b[c])):
                lines.append(f"{c},{i},{x:.9g},{y:.9g},{y - x:.9g}")
            deltas.append(scores_b[c] - scores_a[c])
        deltas = np.concatenate(deltas)
        exp._path("reports", "pairs.csv").write_text("\n".join(lines) + "\n")
        if exp.spec.dim == 2:
            pa = np.concatenate([samples_a[c] for c in exp.classes])
            pb = np.concatenate([samples_b[c] for c in exp.classes])
            svg = side_by_side_svg(exp.spec, pa, pb, labels=(cfg_a.name, cfg_b.name))
            exp._path("plots", "compare.svg").write_text(svg)
        return PairedCompareReport(
            n_pairs=len(deltas),
            mean_delta=float(deltas.mean()),
            median_delta=float(np.median(deltas)),
            fraction_improved=float((deltas > 0).mean()),
            report_a=report_a,
            report_b=report_b,
        )

    return exp.stage("evaluate", pair_stage)
