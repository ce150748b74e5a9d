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
- `file/pool.fmpl` and `file/class_1.traj`: the bytes of the FaME heun run's
  pool and of its class 1 trajectories.

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
from pathlib import Path

import numpy as np

from famelab.config import ExperimentConfig
from famelab.gmm import preset
from famelab.guidance import FAME_DEFAULTS, GuidanceConfig
from famelab.pipeline import run_pipeline
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


def run_cases(out_dir) -> dict:
    """One digest per tiny run, and the FaME heun run's pool and class 1
    trajectory bytes."""
    out = {}
    for method in METHODS:
        for label, guidance in RUNS.items():
            cfg = run_config(out_dir, method, guidance)
            run_pipeline(cfg)
            doc = json.loads((Path(out_dir) / cfg.name / "reports" / "digest.json").read_text())
            [[_, hexdigest]] = doc["final_states"]
            out[f"run/{method}/{label}"] = hexdigest
    run_dir = Path(out_dir) / run_config(out_dir, "heun", FAME_DEFAULTS).name
    for rel in ("pool.fmpl", "trajectories/class_1.traj"):
        out[f"file/{Path(rel).name}"] = hashlib.blake2b((run_dir / rel).read_bytes(), digest_size=32).hexdigest()
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
