"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script once per repetition with the CLOCK_MONOTONIC reading
taken just before the launch, so set-up time covers interpreter start, the
famelab import and the workload's own set-up.  The script sets the workload up,
runs it once through famelab's public pipeline entry points, and prints one JSON
object: timings, peak RSS, the quality numbers of every row, digests of the
files that must be identical across repetitions, and with --trace 1 the span
summary of tracing.py.

The workload seed reaches famelab only as ExperimentConfig.seed; every other
field not set below keeps its default, which is what users get (workers unset,
so chunks run serially, and OpenBLAS at its default thread count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

WORKLOADS = ("reference", "sweep", "neural")
SWEEP_F = (0.0, 0.02, 0.05, 0.1)
QUALITY = ("mean_score", "bad_mode_fraction", "frechet", "precision", "recall")

# same stream key run_pipeline folds into the seed for its own pool, so the
# pool built in the sweep's set-up is the one run_sweep would have built
POOL_STREAM_KEY = 101


def _reference(famelab, seed, out_dir):
    cfg = famelab.ExperimentConfig(
        name="reference", seed=seed, out_dir=out_dir, guidance=famelab.FAME_DEFAULTS
    )
    return cfg, lambda: famelab.run_pipeline(cfg), ["reports/summary.json", "pool.fmpl"]


def _sweep(famelab, seed, out_dir):
    import famelab.pool

    run_dir = Path(out_dir) / "sweep"
    run_dir.mkdir(parents=True, exist_ok=True)
    pool_path = run_dir / "setup_pool.fmpl"
    cfg = famelab.ExperimentConfig(
        name="sweep",
        seed=seed,
        out_dir=out_dir,
        n_per_class=256,
        pool_path=str(pool_path),
        save_trajectories=False,
    )
    spec = famelab.preset(cfg.dataset)
    schedule = famelab.make_schedule(cfg.schedule_kind, cfg.n_steps, cfg.sigma_min, cfg.sigma_max)
    # looked up on the module at call time, so tracing sees these calls too
    pool = famelab.pool.build_pool(
        famelab.guided_source(famelab.AnalyticSource(spec), None, cfg.guidance),
        famelab.SamplerConfig(schedule=schedule, method=cfg.method, record_outputs=True),
        famelab.make_scorer(spec, cfg.scorer),
        famelab.PoolBuildConfig(
            n_candidates_per_class=cfg.pool_candidates,
            n_f=cfg.pool_n_f,
            mode=cfg.pool_mode,
            seed=famelab.derive_seed(cfg.seed, POOL_STREAM_KEY),
        ),
        sorted(spec.classes),
    )
    famelab.pool.save_pool(pool, pool_path)
    sweep = famelab.SweepSpec(axis="f", values=SWEEP_F)
    return cfg, lambda: famelab.run_sweep(cfg, sweep), ["reports/sweep_f.csv", "setup_pool.fmpl"]


def _neural(famelab, seed, out_dir):
    cfg = famelab.ExperimentConfig(
        name="neural",
        seed=seed,
        out_dir=out_dir,
        source="neural",
        guidance=famelab.FAME_DEFAULTS,
        n_per_class=250,
        pool_candidates=100,
        train=famelab.TrainConfig(steps=1000),
        save_trajectories=False,
    )
    files = ["reports/summary.json", "pool.fmpl", "checkpoint.mlpd"]
    return cfg, lambda: famelab.run_pipeline(cfg), files


SETUP = {"reference": _reference, "sweep": _sweep, "neural": _neural}


def _quality(report):
    return {key: getattr(report, key) for key in QUALITY}


def _rows(workload, result, run_dir):
    """Label, status and quality numbers of every operation inside the run;
    a sweep row's status is the status column run_sweep wrote for it."""
    if workload != "sweep":
        return [{"label": "run", "status": "ok", "quality": _quality(result)}]
    lines = (run_dir / "reports" / "sweep_f.csv").read_text().splitlines()[1:]
    return [
        {
            "label": f"f={value:g}",
            "status": line.rsplit(",", 1)[1],
            "quality": None if report is None else _quality(report),
        }
        for (value, report), line in zip(result, lines)
    ]


def _blas():
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = fn()
                break
    return name, threads


def _environment(cfg_workers):
    import numpy
    import scipy

    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "workers": cfg_workers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True, help="CLOCK_MONOTONIC at launch")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import famelab
    from famelab.errors import FamelabError

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cfg, run, files = SETUP[args.workload](famelab, args.seed, args.out_dir)
    setup_s = time.monotonic() - args.launched

    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    run_dir = Path(args.out_dir) / args.workload
    if tracer is not None:
        tracer.run_id = "run"
    start = time.perf_counter()
    try:
        result = tracer.call("pipeline.run", run) if tracer else run()
    except FamelabError as exc:
        out["run_s"] = time.perf_counter() - start
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["rows"] = []
    else:
        out["run_s"] = time.perf_counter() - start
        out["error"] = None
        out["rows"] = _rows(args.workload, result, run_dir)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digests"] = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in files
        if (run_dir / name).exists()
    }
    out["environment"] = _environment(cfg.workers)
    if tracer is not None:
        out["spans"] = len(tracer.spans)
        # [name, start, end, parent index, run id, counts] per span
        spans_file = Path(args.out_dir) / f"spans_{args.workload}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        out["spans_file"] = str(spans_file)
        out["summary"] = tracer.summary()
        out["absent"] = tracer.absent()
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
