"""Command-line harness tests.

Most cases drive main() in-process so exit codes and stdout are cheap to
assert; subprocess cases exercise the installed console script and a run
with scipy unimportable.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import famelab
from famelab import cli, pipeline
from famelab.cli import _resolve_config, build_parser, main
from famelab.pipeline import compare_paired
from famelab.config import ExperimentConfig, load_config
from famelab.guidance import GuidanceConfig, guided_source
from famelab.sampler import sample_batch
from famelab.schedule import load_trajectories
from tests.test_config import save_config


def write_config(tmp_path, **overrides):
    fields = dict(
        name="run",
        dataset="imbalanced2d",
        source="analytic",
        schedule_kind="karras-like",
        n_steps=16,
        sigma_min=0.02,
        sigma_max=8.0,
        guidance=GuidanceConfig(w=1.5, f=0.02, tau=0.3),
        pool_candidates=30,
        pool_n_f=4,
        seed=9,
        n_per_class=25,
        classes=(1, 2),
        out_dir=str(tmp_path / "out"),
    )
    fields.update(overrides)
    path = tmp_path / f"exp_{fields['name']}.json"
    save_config(ExperimentConfig(**fields), path)
    return str(path)


# extra arguments each subcommand needs to get past argument parsing
COMMAND_ARGS = {
    "dataset": [],
    "train": [],
    "build-pool": [],
    "sample": [],
    "evaluate": [],
    "sweep": ["--axis", "f", "--values", "0,0.02"],
    "compare": ["--f-b", "0.05"],
}

# values ExperimentConfig rejects; written as raw JSON since the dataclass
# refuses to hold them
BAD_CONFIG_VALUES = (
    {"sigma_min": 0.0},
    {"schedule_kind": "cosine"},
    {"n_steps": 16.5},
    {"scorer": "fid"},
    {"classes": 5},
    {"classes": ["a"]},
    {"classes": [1.7]},
    {"classes": [2, 1, 2]},
    {"classes": [0]},
    {"classes": [-1]},
    {"guidance": {"cfg_interval": 5}},
    {"guidance": {"cfg_interval": [1]}},
    {"seed": "abc"},
    {"n_per_class": 2.5},
    {"workers": 1.5},
    {"workers": 2},
    {"pool_build_w": 1.2},
    {"pool_candidates": 1.5},
    {"dataset": 5},
)


class TestResolveConfig:
    def test_flags_override_config_fields(self, tmp_path):
        path = write_config(tmp_path)
        args = build_parser().parse_args(
            ["evaluate", "--config", path, "--w", "2.0", "--seed", "12", "--n-per-class", "7",
             "--name", "other", "--out", "elsewhere", "--pool", "p.fmpl"]
        )
        cfg = _resolve_config(args)
        assert cfg.guidance.w == 2.0
        assert cfg.seed == 12
        assert cfg.n_per_class == 7
        assert (cfg.name, cfg.out_dir, cfg.pool_path) == ("other", "elsewhere", "p.fmpl")
        # untouched fields come from the file
        assert cfg.guidance.f == 0.02
        assert cfg.dataset == "imbalanced2d"

    def test_no_flags_uses_file_verbatim(self, tmp_path):
        path = write_config(tmp_path)
        args = build_parser().parse_args(["evaluate", "--config", path])
        cfg = _resolve_config(args)
        assert cfg.guidance.w == 1.5
        assert cfg.seed == 9

    def test_no_config_uses_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        cfg = _resolve_config(args)
        assert cfg == ExperimentConfig()


class TestExitCodes:
    def test_evaluate_success_is_zero(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["evaluate", "--config", path]) == 0
        run_dir = tmp_path / "out" / "run"
        assert (run_dir / "reports" / "report.txt").exists()
        assert not (run_dir / "FAILED").exists()

    def test_invalid_guidance_flag_is_one(self, tmp_path, capsys):
        # a bad flag or bad config value fails validation in every subcommand
        # before any stage runs, so no run directory appears
        path = write_config(tmp_path)
        cases = [(path, ["--tau", "1.5"])]
        for i, bad in enumerate(BAD_CONFIG_VALUES):
            raw = json.loads((tmp_path / "exp_run.json").read_text())
            raw.update(bad)
            bad_path = tmp_path / f"bad_{i}.json"
            bad_path.write_text(json.dumps(raw))
            cases.append((str(bad_path), []))
        for config, flags in cases:
            for command, extra in COMMAND_ARGS.items():
                rc = main([command, "--config", config, *flags, *extra])
                assert rc == 1, (command, config, flags)
                assert "error:" in capsys.readouterr().err
                assert not (tmp_path / "out" / "run").exists(), (command, config, flags)

    def test_unprintable_name_is_one_before_any_file(self, tmp_path, capsys):
        # the name is the title of modes.svg, and XML 1.0 cannot hold U+0001
        path = write_config(tmp_path)
        assert main(["evaluate", "--config", path, "--name", "a\x01b"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_arguments_are_one(self, tmp_path, capsys):
        # argparse's own errors exit 1 like a bad config, not 2, which is
        # kept for a stage that started and failed
        path = write_config(tmp_path)
        cases = [
            ["evaluate", "--seed", "abc"],
            ["evaluate", "--bogus"],
            ["sweep", "--axis", "x", "--values", "1"],
        ]
        cases += [[command, "--workers", "2", *extra] for command, extra in COMMAND_ARGS.items()]
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", path])
            assert exc.value.code == 1, argv
            err = capsys.readouterr().err
            assert "error:" in err, argv
            if "--workers" in argv:
                assert "workers" in err, argv
            assert not (tmp_path / "out").exists(), argv
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--help"])
        assert exc.value.code == 0

    def test_missing_config_is_one(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "nope.json")]) == 1

    def unreadable_is_one(self, tmp_path, capsys, monkeypatch, argv):
        # run from tmp_path, so a default out_dir would show up there too
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        for command, extra in COMMAND_ARGS.items():
            assert main([command, *argv, *extra]) == 1, command
            assert "error:" in capsys.readouterr().err, command
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_that_is_a_directory_is_one(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "exp.json").mkdir()
        self.unreadable_is_one(tmp_path, capsys, monkeypatch, ["--config", "exp.json"])

    def test_config_that_is_not_utf8_is_one(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "exp.json").write_bytes(b'{"name": "caf\xe9"}')
        self.unreadable_is_one(tmp_path, capsys, monkeypatch, ["--config", "exp.json"])

    def test_out_that_is_a_file_is_one(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        (tmp_path / "taken").write_text("not a directory\n")
        self.unreadable_is_one(tmp_path, capsys, monkeypatch, ["--config", path, "--out", "taken"])
        assert (tmp_path / "taken").read_text() == "not a directory\n"

    def test_unknown_dataset_is_two_with_marker(self, tmp_path, capsys):
        path = write_config(tmp_path, dataset="nosuchset")
        for command in ("dataset", "build-pool", "sample", "evaluate"):
            assert main([command, "--config", path, "--name", command]) == 2, command
            marker = (tmp_path / "out" / command / "FAILED").read_text()
            assert "stage: dataset" in marker, command
            assert "error:" in capsys.readouterr().err

    def test_unknown_class_is_one_before_any_file(self, tmp_path, capsys):
        # a class the dataset lacks is known once the dataset resolves, and
        # is a bad config like any other
        path = write_config(tmp_path, classes=(1, 99))
        for command, extra in COMMAND_ARGS.items():
            assert main([command, "--config", path, *extra]) == 1, command
            err = capsys.readouterr().err
            assert "error:" in err and "class 99" in err, command
            assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()], command

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_pool_too_large_is_one_before_any_file(self, tmp_path, capsys, command):
        # the pool-size rule needs the class count, so like an unknown class
        # it is checked once the dataset resolves, by every subcommand
        # whether or not it builds a pool
        too_large = (
            write_config(tmp_path, name="global", pool_candidates=2, pool_n_f=50, classes=None),
            write_config(tmp_path, name="per", pool_candidates=2, pool_n_f=3, pool_mode="per-class"),
        )
        for path in too_large:
            assert main([command, "--config", path, *COMMAND_ARGS[command]]) == 1, path
            assert "n_f" in capsys.readouterr().err, path
            assert not (tmp_path / "out").exists(), path

    def test_late_config_error_leaves_no_directory(self, tmp_path, capsys):
        # a class the dataset lacks, or a sample too small to evaluate, is
        # found once the dataset resolves and still exits 1 before any
        # directory is made
        unknown = write_config(tmp_path, classes=(1, 99))
        small = write_config(tmp_path, name="small", n_per_class=1)
        cases = [(unknown, command, extra) for command, extra in COMMAND_ARGS.items()]
        cases += [(small, command, COMMAND_ARGS[command]) for command in ("evaluate", "sweep", "compare")]
        for config, command, extra in cases:
            assert main([command, "--config", config, *extra]) == 1, (command, config)
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists(), (command, config)

    def test_bad_sweep_values_is_one(self, tmp_path, capsys):
        # a value that is no number, or one the guidance rejects, fails
        # before the run directory or the pool is written
        path = write_config(tmp_path)
        for axis, values in (("f", "0,abc"), ("tau", "0.3,2"), ("w", "-1")):
            rc = main(["sweep", "--config", path, "--axis", axis, "--values", values, "--f", "0.02"])
            assert rc == 1, (axis, values)
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists(), (axis, values)

    def test_compare_without_b_side_is_one(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["compare", "--config", path]) == 1

    def test_evaluation_too_small_is_one_before_sampling(self, tmp_path, capsys):
        # each class's Frechet fit needs d+1 = 3 samples and the pooled k-NN
        # metrics k+1 = 4: a run that could not measure its samples fails
        # before any file (a pool, a trajectory) is written
        path = write_config(tmp_path)
        one_class = write_config(tmp_path, name="one", classes=(1,))
        cases = (
            (path, ["evaluate", "--n-per-class", "2"]),
            (path, ["sweep", "--n-per-class", "1", "--axis", "f", "--values", "0,0.02"]),
            (path, ["compare", "--n-per-class", "2", "--f-b", "0.05"]),
            (one_class, ["evaluate", "--n-per-class", "3"]),
        )
        for config, (command, *flags) in cases:
            assert main([command, "--config", config, *flags]) == 1, (command, flags)
            assert "error:" in capsys.readouterr().err
            assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()], (command, flags)

    def test_sample_and_build_pool_take_one_per_class(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["sample", "--config", path, "--n-per-class", "1"]) == 0
        assert main(["build-pool", "--config", path, "--n-per-class", "1"]) == 0


class TestStdout:
    def test_dataset_lists_classes_and_tags(self, tmp_path, capsys):
        # a neural source is only resolved by the stages that sample
        path = write_config(tmp_path, source="neural")
        assert main(["dataset", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "dataset : imbalanced2d" in out
        assert "dim     : 2" in out
        assert "class 1: 2 components" in out
        assert (tmp_path / "out" / "run" / "dataset.json").exists()
        assert not (tmp_path / "out" / "run" / "checkpoint.mlpd").exists()

    def test_evaluate_prints_report(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["evaluate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "mean quality score" in out
        assert "frechet (pooled)" in out
        assert "class 1:" in out

    def test_build_pool_prints_scores(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["build-pool", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "pool    : 4 records (global) from 30/class" in out
        assert "scores  :" in out
        assert (tmp_path / "out" / "run" / "pool.fmpl").exists()

    def test_sample_writes_trajectories(self, tmp_path, capsys):
        # 3 x 700 trajectories, so a chunk holds several classes and class 3
        # straddles two chunks; the files hold the records sample_batch
        # returns for the run's own arguments
        path = write_config(tmp_path, n_per_class=700, classes=(1, 2, 3))
        assert main(["sample", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "sampled : 2100 trajectories (700 x 3 classes)" in out
        traj_dir = tmp_path / "out" / "run" / "trajectories"
        exp = pipeline.Experiment(replace(load_config(path), name="check"))
        guidance = exp.cfg.guidance
        source = guided_source(exp.base, exp.pool(guidance), guidance)
        batch = sample_batch(source, *exp._sampling())
        for c in (1, 2, 3):
            back = load_trajectories(traj_dir / f"class_{c}.traj")
            assert len(back) == 700
            assert (back["class_id"] == c).all()
            assert back.tobytes() == batch[batch["class_id"] == c].tobytes()

    def test_sweep_prints_csv_and_row_count(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["sweep", "--config", path, "--axis", "w", "--values", "1.0,1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("value,frechet,precision,recall,mean_score,bad_mode_fraction,status")
        assert "rows    : 2/2 succeeded" in out

    def test_compare_prints_paired_summary(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = main(["compare", "--config", path, "--f-b", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pairs             : 50" in out
        assert "frechet a / b" in out

    def test_compare_config_b_takes_the_common_flags(self, tmp_path, capsys):
        # side b gets every common flag but --name and the guidance flags, so
        # a pool given with --pool serves both sides
        path_a = write_config(tmp_path, name="a")
        path_b = write_config(tmp_path, name="b", guidance=GuidanceConfig(w=1.5, f=0.05, tau=0.3))
        assert main(["build-pool", "--config", path_b]) == 0
        pool = str(tmp_path / "out" / "b" / "pool.fmpl")
        argv = ["compare", "--config", path_a, "--config-b", path_b, "--pool", pool, "--n-per-class", "10"]
        assert main(argv) == 0
        assert "pairs             : 20" in capsys.readouterr().out
        assert not (tmp_path / "out" / "a_vs_b" / "pool.fmpl").exists()

    def test_compare_config_b_takes_its_own_guidance_flags(self, tmp_path, capsys, monkeypatch):
        # --w-b, --f-b and --tau-b set side b's guidance over its config;
        # --w sets side a's only
        sides = []

        def spy(cfg_a, cfg_b):
            sides.append((cfg_a.guidance, cfg_b.guidance))
            return compare_paired(cfg_a, cfg_b)

        monkeypatch.setattr(cli, "compare_paired", spy)
        path_a = write_config(tmp_path, name="a")
        path_b = write_config(tmp_path, name="b", guidance=GuidanceConfig(w=1.5, f=0.05, tau=0.3))
        argv = ["compare", "--config", path_a, "--config-b", path_b, "--n-per-class", "10", "--w", "2"]
        assert main([*argv, "--w-b", "3", "--f-b", "0.1", "--tau-b", "0.5"]) == 0
        assert main(argv) == 0
        assert sides == [
            (GuidanceConfig(w=2.0, f=0.02, tau=0.3), GuidanceConfig(w=3.0, f=0.1, tau=0.5)),
            (GuidanceConfig(w=2.0, f=0.02, tau=0.3), GuidanceConfig(w=1.5, f=0.05, tau=0.3)),
        ]
        first, second = capsys.readouterr().out.split("pairs")[1:]
        assert first.split("frechet a / b")[1] != second.split("frechet a / b")[1]

    def test_train_reports_parameter_count(self, tmp_path, capsys):
        from famelab.denoiser import TrainConfig

        path = write_config(tmp_path, source="analytic")
        # cmd_train only consults cfg.train; keep it tiny
        cfg = ExperimentConfig(
            name="run",
            dataset="balanced2d",
            train=TrainConfig(steps=60),
            out_dir=str(tmp_path / "out"),
        )
        save_config(cfg, tmp_path / "train.json")
        assert main(["train", "--config", str(tmp_path / "train.json")]) == 0
        out = capsys.readouterr().out
        assert "trained 60 steps," in out
        assert " parameters" in out
        assert (tmp_path / "out" / "run" / "checkpoint.mlpd").exists()


class TestReproducibility:
    def test_seed_flag_equals_config_seed(self, tmp_path):
        # same effective seed via file vs via flag gives identical artifacts
        path_a = write_config(tmp_path, name="a", seed=9)
        path_b = write_config(tmp_path, name="b", seed=4)
        assert main(["evaluate", "--config", path_a]) == 0
        assert main(["evaluate", "--config", path_b, "--seed", "9"]) == 0
        out = tmp_path / "out"
        for rel in ("pool.fmpl", "reports/class_quality.csv"):
            a = (out / "a" / rel).read_bytes()
            b = (out / "b" / rel).read_bytes()
            assert a == b, rel

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["evaluate", "--config", path]) == 0
        run_dir = tmp_path / "out" / "run"
        first = {
            rel: (run_dir / rel).read_bytes()
            for rel in ("reports/summary.json", "pool.fmpl", "reports/class_quality.csv")
        }
        assert main(["evaluate", "--config", path]) == 0
        for rel, blob in first.items():
            assert (run_dir / rel).read_bytes() == blob, rel


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("famelab")
        if exe is None:
            pytest.skip("console script not installed")
        path = write_config(tmp_path)
        proc = subprocess.run(
            [exe, "dataset", "--config", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dataset : imbalanced2d" in proc.stdout

    def test_entry_point_target_runs(self, tmp_path, capsys):
        # the [project.scripts] target resolved as an installer would, so a
        # renamed or moved main fails without an install
        tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
        pyproject = Path(famelab.__file__).resolve().parents[2] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["famelab"]
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for name in attr.split("."):
            entry = getattr(entry, name)
        assert entry(["dataset", "--config", write_config(tmp_path)]) == 0
        assert "dataset : imbalanced2d" in capsys.readouterr().out


# runs its arguments through main() with every scipy import refused
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, NoScipy())
from famelab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*args):
    src = str(Path(famelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestNumpyOnly:
    def test_import_loads_no_scipy(self):
        proc = _python(
            "-c",
            "import sys, famelab; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_evaluate_runs_without_scipy(self, tmp_path):
        path = write_config(tmp_path, n_per_class=20, n_steps=4, pool_candidates=6)
        proc = _python("-c", _WITHOUT_SCIPY, "evaluate", "--config", path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run" / "reports" / "summary.json").exists()
