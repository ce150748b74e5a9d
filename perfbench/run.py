#!/usr/bin/env python3
"""famelab benchmark: time, memory and quality of whole pipeline runs.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each repetition is a fresh
process (worker.py) that sets the workload up and runs it once; the next
repetition starts only after the previous one has ended.  Repetitions continue
until --seconds have passed, with at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of the
repetitions' run and set-up times and peak RSS, and the run's quality numbers.
--trace 1 alternates untraced and traced repetitions and reports the per-layer
metrics from the spans tracing.py records; trace.overhead_s is the traced
median run time minus the untraced one.

Every repetition's outputs are checked: the files listed per workload in
worker.py must be byte-identical across the repetitions of one invocation, and
each row's quality numbers must match expected.json (see check_quality).  A
mismatch, a failed sweep row, a pipeline error or a crashed worker counts as a
failed operation.  One run is one operation; on sweep so is each row.

The last line of standard output is the JSON result; the line before it holds
the details: samples, environment, checks and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SWEEP_F, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = "perfbench/out"  # relative to ROOT, where workers run
MIN_REPS = 3
# every invocation must end within 180 s; leave room for the last repetition
# to finish and for the report
TIME_LIMIT_S = 170.0
TIME_FIELDS = ("s", "self_s")
QUALITY_UNITS = {
    "mean_score": "score",
    "bad_mode_fraction": "fraction",
    "frechet": "dist2",
    "precision": "fraction",
    "recall": "fraction",
}


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, trace, timeout):
    """One repetition; returns (report dict or None, error text or None)."""
    shutil.rmtree(ROOT / OUT_DIR / workload, ignore_errors=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--trace={trace}",
        f"--out-dir={OUT_DIR}",
    ]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [f"--launched={launched!r}"],
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s and was killed"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exited with {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"worker printed no report: {lines[-1][:200]}"


def measure(workload, seed, seconds, trace, started):
    """Run repetitions until `seconds` have passed; returns [(traced, report, error)]."""
    reps = []
    longest = 0.0
    while True:
        traced = trace == 1 and len(reps) % 2 == 1
        elapsed = time.monotonic() - started
        enough = len(reps) >= MIN_REPS and elapsed >= seconds
        if enough and not traced:
            break
        if elapsed + 1.2 * longest > TIME_LIMIT_S and reps:
            break
        t0 = time.monotonic()
        report, error = run_worker(workload, seed, int(traced), TIME_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - t0)
        reps.append((traced, report, error))
    return reps


def _close(value, expected, tol):
    return abs(value - expected) <= tol["atol"] + tol["rtol"] * abs(expected)


def check_quality(workload, seed, rows, expected):
    """Mismatch messages for one repetition's rows.

    A seed recorded in expected.json must reproduce its numbers within the
    recorded tolerance, which admits last-bit float differences but not a
    different sample.  Another seed must fall inside the recorded seeds'
    envelope, widened by its own width on either side.
    """
    tol = expected["tolerance"]
    recorded = expected["seeds"].get(workload, {})
    problems = {}
    for row in rows:
        label, quality = row["label"], row["quality"]
        if quality is None:
            continue
        exact = recorded.get(str(seed), {}).get(label)
        for key, value in quality.items():
            if exact is not None:
                if not _close(value, exact[key], tol):
                    problems[label] = f"{key}={value!r}, recorded {exact[key]!r}"
                continue
            seen = [r[label][key] for r in recorded.values() if label in r]
            if not seen:
                continue
            lo, hi = min(seen), max(seen)
            if not lo - (hi - lo) - tol["atol"] <= value <= hi + (hi - lo) + tol["atol"]:
                problems[label] = f"{key}={value!r} outside recorded range [{lo!r}, {hi!r}]"
    return problems


def check_reps(workload, seed, reps, expected):
    """Count operations and collect failures, by name, over all repetitions."""
    attempted = failed = 0
    failures = []
    first_digests = None
    row_labels = [f"f={v:g}" for v in SWEEP_F] if workload == "sweep" else []
    for i, (traced, report, error) in enumerate(reps):
        name = f"{workload} seed {seed} rep {i}{' (traced)' if traced else ''}"
        ops = ["run"] + row_labels
        attempted += len(ops)
        bad = {}
        if report is None:
            bad = {op: error for op in ops}
        elif report["error"]:
            bad = {op: report["error"] for op in ops}
        else:
            for row in report["rows"]:
                if row["status"] != "ok":
                    bad[row["label"]] = f"status {row['status']}"
            bad.update(
                (k, v)
                for k, v in check_quality(workload, seed, report["rows"], expected).items()
                if k not in bad
            )
            if first_digests is None:
                first_digests = report["digests"]
            elif report["digests"] != first_digests:
                differ = sorted(
                    f for f in set(first_digests) | set(report["digests"])
                    if first_digests.get(f) != report["digests"].get(f)
                )
                bad.setdefault("run", f"files differ from the first good rep: {', '.join(differ)}")
        failed += len(bad)
        failures += [f"{name} {op}: {why}" for op, why in bad.items()]
    return attempted, failed, failures


def _median(values):
    return statistics.median(values) if values else None


def percentiles(values):
    """The median plus each higher percentile with at least ten samples beyond it."""
    out = {"p50": _median(values)}
    for p in (90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def headline_quality(workload, report):
    """Quality numbers of the run; on sweep those of the f=0.1 row."""
    label = f"f={SWEEP_F[-1]:g}" if workload == "sweep" else "run"
    return next((r["quality"] for r in report["rows"] if r["label"] == label), None)


def end_to_end(workload, ok_reports):
    """Medians over repetitions of the timings and peak RSS, plus the mean score."""
    return {
        "run_s": _median([r["run_s"] for r in ok_reports]),
        "setup_s": _median([r["setup_s"] for r in ok_reports]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in ok_reports]),
        "mean_score": next(
            (q["mean_score"] for q in (headline_quality(workload, r) for r in ok_reports) if q),
            None,
        ),
    }


def per_layer(untraced, traced):
    """Per-layer values from the traced repetitions' span summaries.

    Counts come from the first traced repetition (the others must repeat them
    exactly); times are medians over the traced repetitions.
    """
    summaries = [r["summary"] for r in traced]
    counts = summaries[0]

    def field(span, key):
        if key in TIME_FIELDS:
            return statistics.median(s.get(span, {}).get(key, 0.0) for s in summaries)
        return counts.get(span, {}).get(key, 0.0)

    values = {}
    for span in set().union(*summaries):
        for key in set().union(*(s.get(span, {}) for s in summaries)):
            values[f"{span}.{key}"] = field(span, key)
    cand = field("pool.build_pool", "candidates")
    values["pool.kept_ratio"] = field("pool.build_pool", "kept") / cand if cand else 0.0
    trajectories = field("sampler.sample_batch", "trajectories")
    evals = field("sampler.source.cond", "rows") + field("sampler.source.uncond", "rows")
    values["sampler.nfe_per_traj"] = evals / trajectories if trajectories else 0.0
    values["trace.overhead_s"] = _median([r["run_s"] for r in traced]) - _median(
        [r["run_s"] for r in untraced]
    )
    repeat = all(_counts(s) == _counts(counts) for s in summaries[1:])
    return values, repeat


def _counts(summary):
    return {span: {k: v for k, v in f.items() if k not in TIME_FIELDS} for span, f in summary.items()}


def workload_checks(workload, values):
    """Trace facts that confirm why each workload is in the benchmark."""
    run_s = values.get("pipeline.run.s", 0.0)
    if workload == "reference":
        selfs = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get) if selfs else None
        return {"kernels.gmm_eval has the largest self time": top == "kernels.gmm_eval"}
    if workload == "sweep":
        return {
            "gmm.ideal_denoiser.uncond.rows is 0": values.get("gmm.ideal_denoiser.uncond.rows", 0) == 0,
            "metrics.evaluate.s >= run_s / 3": values.get("metrics.evaluate.s", 0.0) >= run_s / 3,
        }
    return {"kernels.gmm_eval.s < 5% of run_s": values.get("kernels.gmm_eval.s", 0.0) < 0.05 * run_s}


def _numba_importable():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def main(argv=None):
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=int, default=30, help="measure at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "famelab" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"famelab sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    expected = json.loads((HERE / "expected.json").read_text())

    reps = measure(args.workload, args.seed, args.seconds, args.trace, started)
    attempted, failed, failures = check_reps(args.workload, args.seed, reps, expected)
    ok = [(traced, r) for traced, r, _ in reps if r is not None and not r["error"]]
    untraced = [r for traced, r in ok if not traced]
    traced = [r for traced, r in ok if traced]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "load_model": "closed loop, 1 client, 1 fresh process per repetition",
        "repetitions": len(reps),
        "run_s_samples": [r["run_s"] for r in untraced],
        "run_s_percentiles": percentiles([r["run_s"] for r in untraced]) if untraced else {},
        "setup_s_samples": [r["setup_s"] for r in untraced],
        "peak_rss_mib_samples": [r["peak_rss_mib"] for r in untraced],
        "environment": dict(
            (ok[0][1]["environment"] if ok else {}),
            numba_importable=_numba_importable(),
            seed=args.seed,
        ),
        "quality": {
            key: {"value": value, "unit": QUALITY_UNITS[key]}
            for key, value in ((headline_quality(args.workload, ok[0][1]) if ok else None) or {}).items()
        },
        "quality_rows": ok[0][1]["rows"] if ok else [],
        "quality_check": (
            "recorded seed"
            if str(args.seed) in expected["seeds"].get(args.workload, {})
            else "envelope of recorded seeds"
        ),
        "failures": failures,
    }
    metrics = {}
    if args.trace == 0:
        values = end_to_end(args.workload, untraced) if untraced else {}
        wanted = bench["end_to_end"]
    else:
        values, repeat = per_layer(untraced, traced) if untraced and traced else ({}, False)
        if traced and not repeat:
            failed += 1
            failures.append(f"{args.workload}: span counts differ between traced repetitions")
        absent = traced[0]["absent"] if traced else []
        detail["absent"] = [
            m["name"] for m in bench["per_layer"]
            if any(m["name"].startswith(span + ".") for span in absent)
        ]
        detail["traced_run_s_samples"] = [r["run_s"] for r in traced]
        detail["missing_entry_points"] = traced[0]["missing"] if traced else []
        detail["spans"] = [r["spans"] for r in traced]
        detail["spans_file"] = traced[-1]["spans_file"] if traced else None
        detail["workload_checks"] = workload_checks(args.workload, values)
        wanted = bench["per_layer"]
    for m in wanted:
        value = values.get(m["name"], 0.0 if values else None)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for line in failures:
        print(line, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(values),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
