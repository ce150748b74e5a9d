"""Spans around famelab's public entry points, recorded from outside the package.

Each entry point is wrapped where its caller looks it up: `metrics` imports
`pairwise_sqdist` by name, so the wrapper replaces `famelab.metrics.pairwise_sqdist`,
while `gmm` calls `_kernels.gmm_eval` through the module, so that attribute is
replaced instead.  A span records its name, start, end, parent span, the run it
belongs to ("setup" or "run") and the work counts its describer derives from the
call's arguments and result.  Spans stay in memory until `Tracer.summary`
aggregates them at the end of the process.  An entry point that no longer
exists is skipped and its span reported by `Tracer.absent`; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict


def _gmm_eval(result, X, means, qmats, lams, logw, sig2):
    arg_bytes = sum(a.nbytes for a in (X, means, qmats, lams, logw)) + 8
    return "kernels.gmm_eval", {
        "rows": len(X),
        "comp_evals": len(X) * len(means),
        "bytes_computed": arg_bytes + sum(r.nbytes for r in result),
    }


def _pairwise(result, a, b):
    return "kernels.pairwise_sqdist", {"pairs": len(a) * len(b)}


def _ideal_denoiser(result, spec, x, sigma, class_id=None):
    branch = "uncond" if class_id is None else "cond"
    return f"gmm.ideal_denoiser.{branch}", {"rows": len(x)}


def _responsibilities(result, spec, x, class_id=None, sigma=0.0):
    return "gmm.responsibilities", {"rows": len(x)}


def _exact_sampler(result, spec, rng, class_id=None, n=1):
    return "gmm.exact_sampler", {"rows": len(result)}


def _sample_batch(result, source, cfg, base_seed, class_ids, n_per_class, workers=None):
    return "sampler.sample_batch", {"trajectories": len(result)}


def _source(result, self, x, sigma_index, class_ids, ctx):
    branch = "uncond" if class_ids is None else "cond"
    return f"sampler.source.{branch}", {"rows": len(x)}


def _guided(result, self, x, sigma_index, class_ids, ctx):
    return "guidance.evaluate", {"rows": len(x)}


def _build_pool(result, source, sampler_cfg, scorer, build_cfg, class_ids, workers=None):
    return "pool.build_pool", {
        "candidates": build_cfg.n_candidates_per_class * len(class_ids),
        "kept": len(result),
    }


def _select(result, self, seeds, class_ids=None):
    return "pool.select_indices", {"rows": len(seeds)}


def _replay(result, self, indices, step):
    return "pool.replay_outputs", {"rows": len(indices)}


def _save_pool(result, pool, path):
    return "pool.save_pool", {"bytes": os.path.getsize(path)}


def _load_pool(result, path):
    return "pool.load_pool", {"bytes": os.path.getsize(path)}


def _to_bytes(result, record):
    return "schedule.trajectory_to_bytes", {"bytes": len(result)}


def _train(result, spec, cfg):
    return "denoiser.train", {"steps": cfg.steps}


def _loss_and_grad(result, model, x0, sigma, tokens, eps):
    return "denoiser.loss_and_grad", {"rows": len(x0)}


def _scorer(result, self, samples, class_id=None):
    return "metrics.scorer", {"rows": len(result)}


# (module, attribute path, span name, describer).  A describer takes the result
# and the call's arguments and returns the span's final name and work counts.
ENTRY_POINTS = (
    ("famelab._kernels", "gmm_eval", "kernels.gmm_eval", _gmm_eval),
    ("famelab.metrics", "pairwise_sqdist", "kernels.pairwise_sqdist", _pairwise),
    ("famelab.sampler", "ideal_denoiser", "gmm.ideal_denoiser", _ideal_denoiser),
    ("famelab.metrics", "responsibilities", "gmm.responsibilities", _responsibilities),
    ("famelab.pipeline", "exact_sampler", "gmm.exact_sampler", _exact_sampler),
    ("famelab.pipeline", "sample_batch", "sampler.sample_batch", _sample_batch),
    ("famelab.pool", "sample_batch", "sampler.sample_batch", _sample_batch),
    ("famelab.sampler", "AnalyticSource.evaluate", "sampler.source", _source),
    ("famelab.sampler", "NeuralSource.evaluate", "sampler.source", _source),
    ("famelab.guidance", "GuidedSource.evaluate", "guidance.evaluate", _guided),
    ("famelab.pipeline", "build_pool", "pool.build_pool", _build_pool),
    ("famelab.pool", "build_pool", "pool.build_pool", _build_pool),
    ("famelab.pool", "FailurePool.select_indices", "pool.select_indices", _select),
    ("famelab.pool", "FailurePool.replay_outputs", "pool.replay_outputs", _replay),
    ("famelab.pipeline", "save_pool", "pool.save_pool", _save_pool),
    ("famelab.pool", "save_pool", "pool.save_pool", _save_pool),
    ("famelab.pipeline", "load_pool", "pool.load_pool", _load_pool),
    ("famelab.schedule", "TrajectoryRecord.create", "schedule.TrajectoryRecord.create", None),
    ("famelab.pipeline", "trajectory_to_bytes", "schedule.trajectory_to_bytes", _to_bytes),
    ("famelab.pool", "trajectory_to_bytes", "schedule.trajectory_to_bytes", _to_bytes),
    ("famelab.pipeline", "train", "denoiser.train", _train),
    ("famelab.denoiser", "loss_and_grad", "denoiser.loss_and_grad", _loss_and_grad),
    ("famelab.pipeline", "evaluate", "metrics.evaluate", None),
    ("famelab.metrics", "precision_recall", "metrics.precision_recall", None),
    ("famelab.metrics", "frechet_with_flag", "metrics.frechet_with_flag", None),
    ("famelab.metrics", "mode_stats", "metrics.mode_stats", None),
    ("famelab.metrics", "ComponentTagScorer.__call__", "metrics.scorer", _scorer),
    ("famelab.metrics", "LogDensityScorer.__call__", "metrics.scorer", _scorer),
    ("famelab.pipeline", "mode_scatter_svg", "plots.svg", None),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in ENTRY_POINTS))


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, run id, counts]
        self.spans = []
        self.run_id = "setup"
        self.missing = []
        self._installed = set()
        self._stack = []

    def call(self, name, fn, *args, describe=None, **kwargs):
        """Run fn inside a span; describe(result, *args, **kwargs) may rename
        the span and attach counts once the call returns."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if describe is not None:
            rec[0], rec[5] = describe(result, *args, **kwargs)
        return result

    def _wrap(self, fn, span, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, *args, describe=describe, **kwargs)

        return wrapper

    def install(self):
        """Replace every entry point that exists; remember the ones that do not."""
        for module_name, path, span, describe in ENTRY_POINTS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, span, describe)))
            else:
                setattr(owner, attr, self._wrap(raw, span, describe))
            self._installed.add(span)

    def absent(self):
        """Span names none of whose entry points exist any more."""
        return [span for span in SPAN_NAMES if span not in self._installed]

    def summary(self):
        """Per span name: calls, total and self seconds, and summed counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, run_id, counts in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, run_id, counts), child_s in zip(self.spans, covered):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s
            for key, value in counts.items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}
