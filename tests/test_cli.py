"""End-to-end tests of the command line interface (in-process via main)."""

import hashlib
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import curmeta
from curmeta.cli import build_meta_config, build_parser, main
from curmeta.harness import default_plan
from curmeta.meta import FineTuneConfig, MetaConfig, RunLog, emit_curves, load_checkpoint
from curmeta.tasks import SourceConfig

# dim-4 source seed 2 keeps both target labels in every split at 30 subjects
GEN_ARGS = ["--data-seed", "2", "--n-subjects", "30", "--dim", "4"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(out), *GEN_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("trained")
    rc = main(
        [
            "meta-train",
            "--out",
            str(out),
            "--data",
            str(data_dir),
            "--hidden",
            "6",
            "--meta-updates",
            "2",
            "--inner-steps",
            "2",
            "--meta-batch",
            "2",
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------- generate


def test_generate_writes_splits_and_manifest(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path), *GEN_ARGS])
    assert rc == 0
    for name in ("train.tsv", "validation.tsv", "test.tsv", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == {"data_seed": 2}
    assert manifest["config"]["n_subjects"] == 30
    assert "wrote 3 splits" in capsys.readouterr().out


# --------------------------------------------------------------- meta-train


def test_meta_train_artifacts(trained_dir):
    assert (trained_dir / "checkpoint.json").exists()
    assert (trained_dir / "run_log.tsv").exists()
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["config"]["meta_updates"] == 2
    assert manifest["config"]["meta_batch_size"] == 2
    log = RunLog.from_tsv((trained_dir / "run_log.tsv").read_text())
    assert len(log.records) == 2
    model = load_checkpoint(trained_dir / "checkpoint.json")
    assert model.arch.layer_widths == (4, 6, 2)
    assert model.provenance.log_hash == log.content_hash()


def test_meta_train_config_file_with_flag_override(tmp_path, data_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sampler": "random", "meta_updates": 2, "inner_steps": 1}))
    out = tmp_path / "run"
    rc = main(
        [
            "meta-train",
            "--out",
            str(out),
            "--data",
            str(data_dir),
            "--hidden",
            "6",
            "--config",
            str(cfg_path),
            "--sampler",
            "cl",
            "--meta-batch",
            "2",
        ]
    )
    assert rc == 0
    log = RunLog.from_tsv((out / "run_log.tsv").read_text())
    assert all(r.sampler == "cl" for r in log.records)  # flag beats the file
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sampler"] == "cl"
    assert manifest["config"]["meta_updates"] == 2  # file value survives


def test_meta_train_no_target_task(tmp_path, data_dir):
    out = tmp_path / "ns"
    rc = main(
        [
            "meta-train",
            "--out",
            str(out),
            "--data",
            str(data_dir),
            "--hidden",
            "6",
            "--meta-updates",
            "3",
            "--inner-steps",
            "1",
            "--meta-batch",
            "4",
            "--no-target-task",
        ]
    )
    assert rc == 0
    log = RunLog.from_tsv((out / "run_log.tsv").read_text())
    sampled = set(t for r in log.records for t in r.tasks)
    assert sampled and "K5" not in sampled


def test_build_meta_config_precedence():
    parser = build_parser()
    args = parser.parse_args(
        ["meta-train", "--out", "x", "--meta-rate", "0.5", "--no-target-task"]
    )
    cfg = build_meta_config(args)
    assert cfg.meta_rate == 0.5
    assert cfg.exclude_target_task is True
    assert cfg.sampler.value == "random"  # untouched default


def test_parser_defaults_are_the_library_defaults():
    ft, plan = FineTuneConfig(), default_plan()
    n = {"n_subjects": plan.n_subjects}
    no_seed = {**n, "data_seed": None}  # data from --data has no seed to record
    expected = {
        "generate": {**n, "dim": SourceConfig().dim, "data_seed": SourceConfig().seed},
        "meta-train": {**no_seed, "hidden": plan.hidden},
        "fine-tune": {
            **no_seed,
            "learning_rate": ft.learning_rate,
            "batch_size": ft.batch_size,
            "epochs": ft.epochs,
            "seed": plan.run_seed,
        },
        "evaluate": no_seed,
        "sweep": {
            **n,
            "meta_updates": MetaConfig().meta_updates,
            "repetitions": plan.repetitions,
            "ft_epochs": ft.epochs,
            "data_seed": plan.data_seed,
            "run_seed": plan.run_seed,
        },
        "curves": {"window": inspect.signature(emit_curves).parameters["window"].default},
    }
    parser = build_parser()
    for command, values in expected.items():
        extra = {"fine-tune": ["--checkpoint", "c"], "evaluate": ["--checkpoint", "c"], "curves": ["--log", "l"]}
        args = parser.parse_args([command, "--out", "x", *extra.get(command, [])])
        assert {name: getattr(args, name) for name in values} == values, command


def test_meta_train_rejects_unknown_config_field(tmp_path, data_dir, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"meta_updates": 1, "wat": 3}))
    rc = main(
        [
            "meta-train",
            "--out",
            str(tmp_path / "out"),
            "--data",
            str(data_dir),
            "--config",
            str(cfg_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("[meta-train]")
    assert "bad config field" in err


# ---------------------------------------------------------------- fine-tune


def test_fine_tune_and_evaluate_chain(tmp_path, data_dir, trained_dir, capsys):
    ft_dir = tmp_path / "ft"
    rc = main(
        [
            "fine-tune",
            "--out",
            str(ft_dir),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            "--data",
            str(data_dir),
            "--epochs",
            "2",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    assert (ft_dir / "checkpoint.json").exists()
    tuned = load_checkpoint(ft_dir / "checkpoint.json")
    assert tuned.provenance.config["fine_tune"]["epochs"] == 2
    capsys.readouterr()

    ev_dir = tmp_path / "ev"
    rc = main(
        [
            "evaluate",
            "--out",
            str(ev_dir),
            "--checkpoint",
            str(ft_dir / "checkpoint.json"),
            "--data",
            str(data_dir),
            "--split",
            "test",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("K5 test AUC: ")
    result = json.loads((ev_dir / "result.json").read_text())
    assert result["task"] == "K5" and result["split"] == "test"
    assert 0.0 <= result["auc"] <= 1.0


def test_a_fine_tuned_checkpoint_records_the_fine_tune_seed(tmp_path, data_dir):
    meta = ["--hidden", "6", "--meta-updates", "2", "--inner-steps", "2", "--meta-batch", "2"]
    data = ["--data", str(data_dir)]
    assert main(["meta-train", "--out", str(tmp_path / "meta"), *data, *meta, "--seed", "3"]) == 0
    checkpoint = ["--checkpoint", str(tmp_path / "meta" / "checkpoint.json")]
    assert main(["fine-tune", "--out", str(tmp_path / "ft"), *data, *checkpoint, "--epochs", "1", "--seed", "5"]) == 0
    assert json.loads((tmp_path / "meta" / "checkpoint.json").read_text())["seed"] == 3
    assert json.loads((tmp_path / "ft" / "checkpoint.json").read_text())["seed"] == 5


def test_evaluate_other_task_and_split(tmp_path, data_dir, trained_dir, capsys):
    rc = main(
        [
            "evaluate",
            "--out",
            str(tmp_path),
            "--checkpoint",
            str(trained_dir / "checkpoint.json"),
            "--data",
            str(data_dir),
            "--task",
            "K3",
            "--split",
            "validation",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("K3 validation AUC: ")


SPLITS = ("train.tsv", "validation.tsv", "test.tsv")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_inputs(out_dir) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())["config"]["inputs"]


def test_stages_record_their_inputs_by_file_name_not_path(tmp_path, data_dir, trained_dir):
    splits = {name: sha256(data_dir / name) for name in SPLITS}
    checkpoint = {"checkpoint.json": sha256(trained_dir / "checkpoint.json")}
    trees = []
    for where in ("a", "b/deeper"):
        root = tmp_path / where
        shutil.copytree(data_dir, root / "splits")
        shutil.copy(trained_dir / "checkpoint.json", root / "model.json")
        data, model = ["--data", str(root / "splits")], ["--checkpoint", str(root / "model.json")]
        meta = ["--hidden", "6", "--meta-updates", "2", "--inner-steps", "2", "--meta-batch", "2"]
        assert main(["meta-train", "--out", str(root / "meta-train"), *data, *meta]) == 0
        assert main(["fine-tune", "--out", str(root / "fine-tune"), *data, *model, "--epochs", "1"]) == 0
        assert main(["evaluate", "--out", str(root / "evaluate"), *data, *model]) == 0
        assert recorded_inputs(root / "meta-train") == splits
        assert recorded_inputs(root / "fine-tune") == recorded_inputs(root / "evaluate") == {**splits, **checkpoint}
        trees.append(
            {
                p.relative_to(root).as_posix(): p.read_bytes()
                for stage in ("meta-train", "fine-tune", "evaluate")
                for p in (root / stage).rglob("*")
                if p.is_file()
            }
        )
    assert trees[0] == trees[1]
    # a stage that generates its data records the data seed and no split files
    out = tmp_path / "generated"
    assert main(["meta-train", "--out", str(out), *GEN_ARGS[:4], *meta]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == {"seed": 0, "data_seed": 2}
    assert manifest["config"]["inputs"] == {}


def test_evaluate_records_which_checkpoint_it_scored(tmp_path, data_dir, trained_dir):
    tuned = tmp_path / "tuned"
    data = ["--data", str(data_dir)]
    argv = ["--checkpoint", str(trained_dir / "checkpoint.json"), "--epochs", "1"]
    assert main(["fine-tune", "--out", str(tuned), *data, *argv]) == 0
    inputs = []
    for name, checkpoint in (("meta", trained_dir), ("tuned", tuned)):
        out = tmp_path / "evaluate" / name
        assert main(["evaluate", "--out", str(out), *data, "--checkpoint", str(checkpoint / "checkpoint.json")]) == 0
        inputs.append(recorded_inputs(out))
    assert [i["checkpoint.json"] for i in inputs] == [sha256(d / "checkpoint.json") for d in (trained_dir, tuned)]
    assert inputs[0]["checkpoint.json"] != inputs[1]["checkpoint.json"]
    assert {**inputs[0], "checkpoint.json": ""} == {**inputs[1], "checkpoint.json": ""}  # same splits


def test_fine_tune_missing_checkpoint_fails_cleanly(tmp_path, data_dir, capsys):
    rc = main(
        [
            "fine-tune",
            "--out",
            str(tmp_path / "out"),
            "--checkpoint",
            str(tmp_path / "nope.json"),
            "--data",
            str(data_dir),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("[fine-tune]")


def test_fine_tune_bad_checkpoint_fails_naming_the_field(tmp_path, data_dir, trained_dir, capsys):
    doc = json.loads((trained_dir / "checkpoint.json").read_text())
    del doc["architecture"]["activation"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(
        [
            "fine-tune",
            "--out",
            str(tmp_path / "out"),
            "--checkpoint",
            str(bad),
            "--data",
            str(data_dir),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("[fine-tune]")
    assert "architecture.activation" in err


@pytest.mark.parametrize(
    "command, flag", [("fine-tune", "--checkpoint"), ("evaluate", "--checkpoint"), ("meta-train", "--config")]
)
def test_a_file_that_is_not_json_fails_naming_the_file(tmp_path, data_dir, capsys, command, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    rc = main([command, "--out", str(tmp_path / "out"), flag, str(bad), "--data", str(data_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"[{command}] {bad}: not JSON: Expecting value: line 1 column 1 (char 0)\n"
    assert not (tmp_path / "out").exists()


def test_meta_train_empty_train_split_fails_cleanly(tmp_path, data_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    header = (data / "train.tsv").read_text().splitlines()[0]
    (data / "train.tsv").write_text(header + "\n")
    rc = main(["meta-train", "--out", str(tmp_path / "out"), "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("[meta-train]")
    assert str(data / "train.tsv") in err


def test_meta_train_bad_cell_fails_naming_file_line_and_column(tmp_path, data_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    lines = (data / "train.tsv").read_text().splitlines()
    cells = lines[2].split("\t")
    cells[3] = "nan"
    lines[2] = "\t".join(cells)
    (data / "train.tsv").write_text("\n".join(lines) + "\n")
    rc = main(["meta-train", "--out", str(tmp_path / "out"), "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[meta-train] {data / 'train.tsv'}:3: f1 must be a finite number, got 'nan'")


def test_meta_train_rejects_splits_of_unequal_width(tmp_path, data_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    wide = tmp_path / "wide"
    assert main(["generate", "--out", str(wide), "--data-seed", "2", "--n-subjects", "30", "--dim", "8"]) == 0
    shutil.copy(wide / "test.tsv", data / "test.tsv")
    capsys.readouterr()
    rc = main(["meta-train", "--out", str(tmp_path / "out"), "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "[meta-train] the test split has 8 features, the train split has 4\n"


def test_negative_seeds_fail_naming_seed(tmp_path, data_dir, trained_dir, capsys):
    rc = main(["generate", "--out", str(tmp_path / "gen"), "--data-seed", "-1", "--n-subjects", "20"])
    assert rc == 1
    assert capsys.readouterr().err == "[generate] seed must be >= 0, got -1\n"
    out = tmp_path / "ft"
    argv = ["fine-tune", "--out", str(out), "--checkpoint", str(trained_dir / "checkpoint.json")]
    rc = main([*argv, "--data", str(data_dir), "--epochs", "1", "--seed", "-1000"])
    assert rc == 1
    assert capsys.readouterr().err == "[fine-tune] seed must be >= 0, got -1000\n"
    assert not out.exists()


def test_meta_train_rejects_zero_hidden_before_loading_data(tmp_path, capsys):
    missing = tmp_path / "no-data"  # loading it would fail with another message
    rc = main(["meta-train", "--out", str(tmp_path / "out"), "--data", str(missing), "--hidden", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "[meta-train] hidden must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- curves


def test_curves_command(tmp_path, trained_dir, capsys):
    rc = main(
        [
            "curves",
            "--out",
            str(tmp_path),
            "--log",
            str(trained_dir / "run_log.tsv"),
            "--window",
            "1",
        ]
    )
    assert rc == 0
    assert (tmp_path / "task_curves.tsv").exists()
    assert (tmp_path / "sampling_histogram.tsv").exists()
    assert "wrote curves for 2 meta-updates" in capsys.readouterr().out


def test_curves_rejects_malformed_log(tmp_path, capsys):
    bad = tmp_path / "log.tsv"
    bad.write_text("not\ta\tlog\n")
    rc = main(["curves", "--out", str(tmp_path / "o"), "--log", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("[curves]")
    assert "malformed run log" in err


def test_curves_names_the_log_line_and_column_of_a_bad_cell(tmp_path, trained_dir, capsys):
    lines = (trained_dir / "run_log.tsv").read_text().splitlines()
    parts = lines[1].split("\t")
    parts[0] = "z"
    lines[1] = "\t".join(parts)
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["curves", "--out", str(tmp_path / "o"), "--log", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[curves] {bad}: malformed run log: line 2: iteration must be an integer")
    assert not (tmp_path / "o").exists()


def test_curves_rejects_a_ragged_log_naming_the_line_and_column(tmp_path, trained_dir, capsys):
    lines = (trained_dir / "run_log.tsv").read_text().splitlines()
    parts = lines[1].split("\t")
    parts[4] = parts[4].split(",")[0]  # one auc_after value for a meta-batch of two
    lines[1] = "\t".join(parts)
    bad = tmp_path / "ragged.tsv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["curves", "--out", str(tmp_path / "o"), "--log", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"[curves] {bad}: malformed run log: line 2: auc_after must hold one value per task (2), got 1\n"
    assert not (tmp_path / "o").exists()


# -------------------------------------------------------------------- sweep


def test_sweep_command_reduced(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--meta-updates",
            "1",
            "--repetitions",
            "1",
            "--no-baselines",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "N/A" in out  # the undefined alltask cell renders in the printed table
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "results.txt").read_text() == out
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc["format"] == "curmeta-results-v1"
    assert len(doc["cells"]) == 12


def test_sweep_records_subjects_and_fine_tune_epochs_in_the_plan(tmp_path, capsys):
    argv = ["sweep", "--out", str(tmp_path), "--meta-updates", "1", "--repetitions", "1"]
    rc = main([*argv, "--no-baselines", "--n-subjects", "30", "--ft-epochs", "2"])
    assert rc == 0, capsys.readouterr().err
    plan = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert plan["n_subjects"] == 30
    assert plan["fine_tune"]["epochs"] == 2
    run_dir = tmp_path / "runs" / "bsml-k3-random" / "rep0"
    # 30 subjects: 12 train subjects with 2 samples each
    assert len((run_dir / "data" / "train.tsv").read_text().splitlines()) == 1 + 24


# ------------------------------------------------------------------ README

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every `curmeta ...` line of the README's code blocks, once per value of
    its block's shell loop (``for s in a b; do``) substituted for the loop variable."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    commands = []
    for block in blocks:
        lines = [line.strip() for line in block.splitlines() if line.strip().startswith("curmeta ")]
        loop = re.search(r"^for (\w+) in ([^;]+); do", block, flags=re.M)
        if loop:
            lines = [line.replace(f"${loop[1]}", value) for line in lines for value in loop[2].split()]
        commands += lines
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    assert not [line for line in commands if "$" in line]  # every shell variable filled in
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0], line


# -------------------------------------------------------------- entry point


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_script() -> str:
    """The `curmeta` value of `[project.scripts]`, e.g. "curmeta.cli:main"."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["curmeta"]


def _run(argv):
    """Run argv against the same source tree as the in-process tests."""
    src = str(Path(curmeta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


def _run_declared_script(*args):
    """Call the declared entry as the pip-generated `curmeta` wrapper does."""
    module, _, attr = _declared_script().partition(":")
    wrapper = (
        "import importlib, sys\n"
        "sys.argv[0] = 'curmeta'\n"
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())\n"
    )
    return _run([sys.executable, "-c", wrapper, *args])


def test_console_script_help_smoke():
    proc = _run_declared_script("--help")
    assert proc.returncode == 0, proc.stderr
    for sub in ("generate", "meta-train", "fine-tune", "evaluate", "sweep", "curves"):
        assert sub in proc.stdout
    installed = shutil.which("curmeta")
    if installed is not None:
        real = _run([installed, "--help"])
        assert real.returncode == 0, real.stderr
        assert real.stdout == proc.stdout


def test_module_entry_matches_script():
    proc = _run([sys.executable, "-m", "curmeta.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _run_declared_script("--help").stdout
