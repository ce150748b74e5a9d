"""Command-line harness.

Every subcommand reads the same config file; flags override config fields.
Exit codes: 0 success, 1 validation error (bad config or arguments), 2
pipeline failure (a stage started and then failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, SweepSpec, load_config
from .errors import FamelabError, InvalidArgumentError, PipelineStageError
from .metrics import render_report
from .pipeline import Experiment, compare_paired, run_pipeline, run_sweep


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--name", help="experiment name (output subdirectory)")
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, help="sampling worker threads")
    p.add_argument("--w", type=float, help="guidance scale override")
    p.add_argument("--f", type=float, help="replay scale override")
    p.add_argument("--tau", type=float, help="replay window fraction override")
    p.add_argument("--pool", help="path to an existing failure pool")
    p.add_argument("--n-per-class", type=int, dest="n_per_class")


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    over = {}
    for flag, field in (
        ("name", "name"),
        ("seed", "seed"),
        ("out", "out_dir"),
        ("workers", "workers"),
        ("pool", "pool_path"),
        ("n_per_class", "n_per_class"),
    ):
        v = getattr(args, flag, None)
        if v is not None:
            over[field] = v
    g = {}
    for axis in ("w", "f", "tau"):
        v = getattr(args, axis, None)
        if v is not None:
            g[axis] = v
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
    scores = ", ".join(f"{r.quality_score:.3f}" for r in pool.records)
    print(f"pool    : {len(pool)} records ({cfg.pool_mode}) from {cfg.pool_candidates}/class")
    print(f"scores  : [{scores}]")
    print(f"written : {exp.run_dir / 'pool.fmpl'}")
    return 0


def cmd_sample(cfg, args):
    exp = Experiment(cfg)
    records = exp.stage("sample", lambda: exp.sample(cfg.guidance, save_trajectories=True))
    print(f"sampled : {len(records)} trajectories ({cfg.n_per_class} x {len(exp.classes)} classes)")
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
        cfg_b = _resolve_config(
            argparse.Namespace(
                config=args.config_b,
                name=None,
                seed=args.seed,
                out=args.out,
                workers=args.workers,
                w=None,
                f=None,
                tau=None,
                pool=None,
                n_per_class=args.n_per_class,
            )
        )
    else:
        g = {}
        for axis in ("w", "f", "tau"):
            v = getattr(args, f"{axis}_b")
            if v is not None:
                g[axis] = v
        if not g:
            raise InvalidArgumentError("compare needs --config-b or at least one of --w-b/--f-b/--tau-b")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famelab",
        description="Guided diffusion sampling experiments on tractable mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=("w", "f", "tau"))
            p.add_argument("--values", required=True, help="comma-separated axis values")
        if name == "compare":
            p.add_argument("--config-b", dest="config_b", help="config for the second side")
            p.add_argument("--w-b", dest="w_b", type=float)
            p.add_argument("--f-b", dest="f_b", type=float)
            p.add_argument("--tau-b", dest="tau_b", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FamelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
