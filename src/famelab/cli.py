"""Command-line harness.

Every subcommand reads the same config file; flags override config fields.
Exit codes: 0 success, 1 validation error (bad config or arguments, or a
path that cannot be read or written), 2 pipeline failure (a stage started
and then failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import SWEEP_AXES, ExperimentConfig, SweepSpec, load_config
from .errors import FamelabError, InvalidArgumentError
from .metrics import render_report
from .pipeline import Experiment, compare_paired, run_pipeline, run_sweep


# the config fields the common flags override; each flag's dest is its field
_FIELDS = ("name", "seed", "out_dir", "pool_path", "n_per_class")


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--name", help="experiment name (output subdirectory)")
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--out", dest="out_dir", help="output directory override")
    p.add_argument("--w", type=float, help="guidance scale override")
    p.add_argument("--f", type=float, help="replay scale override")
    p.add_argument("--tau", type=float, help="replay window fraction override")
    p.add_argument("--pool", dest="pool_path", help="path to an existing failure pool")
    p.add_argument("--n-per-class", type=int, dest="n_per_class")


def _guidance_flags(args, suffix="") -> dict:
    """The guidance axes set by the --<axis><suffix> flags."""
    return {a: v for a in SWEEP_AXES if (v := getattr(args, a + suffix, None)) is not None}


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    over = {f: v for f in _FIELDS if (v := getattr(args, f, None)) is not None}
    g = _guidance_flags(args)
    if g:
        over["guidance"] = replace(cfg.guidance, **g)
    return replace(cfg, **over) if over else cfg


def cmd_dataset(cfg, args):
    exp = Experiment(cfg)
    path = exp.write_dataset()
    spec = exp.spec
    print(f"dataset : {cfg.dataset}")
    print(f"dim     : {spec.dim}")
    print(f"classes : {sorted(spec.classes)}")
    for c in sorted(spec.classes):
        comps = spec.classes[c]
        tags = ", ".join(f"{k.quality_tag:g}" for k in comps)
        print(f"  class {c}: {len(comps)} components, tags [{tags}]")
    print(f"written : {path}")
    return 0


def cmd_train(cfg, args):
    # trains the MLP whatever cfg.source says, so a checkpoint can be made first
    exp = Experiment(cfg)
    model = exp.stage("train", exp.train_model)
    n_params = sum(p.size for p in model.params.values())
    print(f"trained {cfg.train.steps} steps, {n_params} parameters")
    print(f"written : {exp.run_dir / 'checkpoint.mlpd'}")
    return 0


def cmd_build_pool(cfg, args):
    exp = Experiment(cfg)
    pool = exp.build_pool(cfg.guidance)
    scores = ", ".join(f"{s:.3f}" for s in pool.records["score"].tolist())
    print(f"pool    : {len(pool)} records ({cfg.pool_mode}) from {cfg.pool_candidates}/class")
    print(f"scores  : [{scores}]")
    print(f"written : {exp.run_dir / 'pool.fmpl'}")
    return 0


def cmd_sample(cfg, args):
    exp = Experiment(cfg)
    samples = exp.stage("sample", lambda: exp.sample(cfg.guidance, save_trajectories=True))
    n = sum(map(len, samples.values()))
    print(f"sampled : {n} trajectories ({cfg.n_per_class} x {len(exp.classes)} classes)")
    print(f"written : {exp.run_dir / 'trajectories'}")
    return 0


def cmd_evaluate(cfg, args):
    report = run_pipeline(cfg)
    sys.stdout.write(render_report(report))
    print(f"written : {Path(cfg.out_dir) / cfg.name / 'reports'}")
    return 0


def cmd_sweep(cfg, args):
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad sweep values {args.values!r}: {exc}") from exc
    sweep = SweepSpec(args.axis, tuple(values))
    results = run_sweep(cfg, sweep)
    csv_path = Path(cfg.out_dir) / cfg.name / "reports" / f"sweep_{sweep.axis}.csv"
    sys.stdout.write(csv_path.read_text())
    ok = sum(1 for _, r in results if r is not None)
    print(f"rows    : {ok}/{len(results)} succeeded")
    return 0


def cmd_compare(cfg, args):
    if args.config_b:
        # side b takes every common flag but the name and guidance of side a,
        # and its own guidance flags over its config
        side_b = dict(
            vars(args), config=args.config_b, name=None, **{a: getattr(args, a + "_b") for a in SWEEP_AXES}
        )
        cfg_b = _resolve_config(argparse.Namespace(**side_b))
    else:
        g = _guidance_flags(args, "_b")
        if not g:
            flags = "/".join(f"--{axis}-b" for axis in SWEEP_AXES)
            raise InvalidArgumentError(f"compare needs --config-b or at least one of {flags}")
        cfg_b = replace(cfg, guidance=replace(cfg.guidance, **g), name=cfg.name + "-b")
    result = compare_paired(cfg, cfg_b)
    print(f"pairs             : {result.n_pairs}")
    print(f"mean score delta  : {result.mean_delta:+.4f}")
    print(f"median score delta: {result.median_delta:+.4f}")
    print(f"fraction improved : {result.fraction_improved:.3f}")
    print(f"frechet a / b     : {result.report_a.frechet:.6f} / {result.report_b.frechet:.6f}")
    return 0


_COMMANDS = {
    "dataset": cmd_dataset,
    "train": cmd_train,
    "build-pool": cmd_build_pool,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


class _Parser(argparse.ArgumentParser):
    """A bad argument exits 1, as a bad config does, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="famelab",
        description="Guided diffusion sampling experiments on tractable mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--values", required=True, help="comma-separated axis values")
        if name == "compare":
            p.add_argument("--config-b", dest="config_b", help="config for the second side")
            for axis in SWEEP_AXES:
                p.add_argument(f"--{axis}-b", dest=f"{axis}_b", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FamelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
