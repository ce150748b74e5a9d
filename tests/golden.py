"""Pinned float64 digests of the guarantee-bearing paths, and their recorder.

Each case is one blake2b-256 hex digest:
- `evaluate/<spec>/<form>`: `GmmSpec.evaluate`'s logp and denoise, item by
  item, at every level of the default schedule, on 257 seeded points, for
  each item form ([ids], [ids, None], [None], [c]) on both presets and on a
  rotated 3-D spec (so the rotating path is pinned, not only its identity
  skip);
- `run/<method>/<guidance>`: the `reports/digest.json` hash of a tiny
  analytic `run_pipeline` (8 classes x 16 samples, 8 pool candidates per
  class, seed 3) under each sampler method;
- `report/<method>/<guidance>`: the float64 bytes of every float field of
  that run's `EvalReport`, per-class Frechet values and percentiles
  included, in `to_dict` order;
- `file/pool.fmpl` and `file/class_1.traj`: the bytes of the FaME heun run's
  pool and of its class 1 trajectories;
- `file/sweep_f.csv`: the bytes of a 3-row f sweep's table on the same tiny
  setup, so that what the rows of one experiment share is pinned too.

The digests hold for one toolchain: numpy may compute float64 exp and log
on a SIMD path chosen per CPU, so the file records the numpy version and the
CPU model it was made with.  A change that moves bits on purpose re-records
the file with

    PYTHONPATH=src python -m tests.golden --record

and says in CHANGES.md which cases moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from famelab.config import ExperimentConfig, SweepSpec
from famelab.gmm import preset
from famelab.guidance import FAME_DEFAULTS, GuidanceConfig
from famelab.pipeline import run_pipeline, run_sweep
from famelab.schedule import make_schedule
from tests.test_gmm import rotated_spec

GOLDEN = Path(__file__).with_name("golden.json")

N_POINTS = 257
RUNS = {
    "w=1": GuidanceConfig(w=1.0),
    "cfg": GuidanceConfig(w=1.5),
    "fame": FAME_DEFAULTS,
    "tau=1,f=0.2": GuidanceConfig(w=1.5, f=0.2, tau=1.0),
}
METHODS = ("euler", "heun")
SWEEP = SweepSpec("f", (0.0, 0.02, 0.1))


def environment() -> dict:
    """The numpy version and the CPU model the digests depend on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "cpu": cpu}


def _digest():
    return hashlib.blake2b(digest_size=32)


def _digest_of(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=32).hexdigest()


def evaluate_cases() -> dict:
    """One digest per spec and `evaluate` item form."""
    sigmas = make_schedule("karras-like", 64, 0.01, 10.0).sigmas
    specs = {name: preset(name) for name in ("balanced2d", "imbalanced2d")}
    specs["rotated3d"] = rotated_spec(3, 11)
    out = {}
    for name, spec in specs.items():
        rng = np.random.default_rng(7)
        X = 3.0 * rng.standard_normal((N_POINTS, spec.dim))
        ids = rng.choice(np.array(spec.class_ids), N_POINTS)
        forms = {"[ids]": [ids], "[ids, None]": [ids, None], "[None]": [None], "[c]": [spec.class_ids[-1]]}
        for form, mixtures in forms.items():
            h = _digest()
            for sigma in sigmas:
                for logp, _, denoise, _ in spec.evaluate(X, sigma, mixtures):
                    h.update(logp.astype("<f8").tobytes())
                    h.update(denoise.astype("<f8").tobytes())
            out[f"evaluate/{name}/{form}"] = h.hexdigest()
    return out


def run_config(out_dir, method, guidance) -> ExperimentConfig:
    """The tiny analytic run of one sampler method and guidance setting."""
    return ExperimentConfig(
        name=f"{method}-{guidance.w:g}-{guidance.f:g}-{guidance.tau:g}",
        method=method,
        guidance=guidance,
        n_per_class=16,
        pool_candidates=8,
        seed=3,
        out_dir=str(out_dir),
    )


def _floats(obj) -> list:
    """The floats of a `to_dict` tree, depth first in its order."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [v for item in obj for v in _floats(item)]
    return [obj] if isinstance(obj, float) else []


def run_cases(out_dir) -> dict:
    """One final-state digest and one report digest per tiny run, the FaME
    heun run's pool and class 1 trajectory bytes, and the f sweep's table."""
    out = {}
    for method in METHODS:
        for label, guidance in RUNS.items():
            cfg = run_config(out_dir, method, guidance)
            report = run_pipeline(cfg)
            doc = json.loads((Path(out_dir) / cfg.name / "reports" / "digest.json").read_text())
            [[_, hexdigest]] = doc["final_states"]
            out[f"run/{method}/{label}"] = hexdigest
            floats = np.array(_floats(report.to_dict()), dtype="<f8")
            out[f"report/{method}/{label}"] = _digest_of(floats.tobytes())
    fame = run_config(out_dir, "heun", FAME_DEFAULTS)
    for rel in ("pool.fmpl", "trajectories/class_1.traj"):
        out[f"file/{Path(rel).name}"] = _digest_of((Path(out_dir) / fame.name / rel).read_bytes())
    run_sweep(replace(fame, name="sweep"), SWEEP)
    out["file/sweep_f.csv"] = _digest_of((Path(out_dir) / "sweep" / "reports" / "sweep_f.csv").read_bytes())
    return out


def cases(out_dir) -> dict:
    """Every pinned case by name; runs write under out_dir."""
    return {**evaluate_cases(), **run_cases(out_dir)}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**environment(), "cases": cases(tmp)}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record the pinned float64 digests of tests/golden.json.")
    ap.add_argument("--record", action="store_true", required=True, help="rewrite tests/golden.json")
    ap.parse_args(argv)
    record()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
