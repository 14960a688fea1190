"""Pinned artifact bytes of small end-to-end runs.

Every output file of a run is a pure function of its seeds, so a change that
claims to keep the numbers must keep these tree digests.  They are computed
with the benchmark's own ``tree_digest`` (perfbench/workloads.py, loaded from
its file as tests/test_traced_names.py loads the tracer) and cover the
second-order curriculum pipeline, the first-order bandit pipeline, a
default-plan sweep, whose fine-tune is a lockstep stack of 13 models, and the
CLI's stage chain (generate, meta-train, fine-tune, evaluate, curves), each
stage reading the files of a stage before.  The same digests hold with BLAS at one thread and at its default thread count.

The run logs and the generated data are pinned on their own: they come from
the data seed's stream and meta-training's streams (children 0-2 of the run
seed), which fine-tuning and the multi-task baseline (children 4 and 5) do
not touch.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from curmeta.cli import main
from curmeta.harness import default_plan, run_pipeline, run_sweep
from curmeta.meta import FineTuneConfig, MetaConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

FINE_TUNE = FineTuneConfig(epochs=20)
SETTINGS = dict(data_seed=4, run_seed=9, n_subjects=40, hidden=8, fine_tune=FINE_TUNE)

PIPELINES = {
    "second-cl": (
        MetaConfig(meta_updates=30, sampler="cl", gradient_mode="second", meta_batch_size=5),
        "d6dc9eb3554e2d20832c46423f8154a0f2131f80590a42f1b88e294ac3d06a5e",
    ),
    "first-mab": (
        MetaConfig(meta_updates=30, sampler="mab", gradient_mode="first", meta_batch_size=3),
        "d406be4e483b9c64090375abf04a41e3ab5032397f7d193dee567724c03cbb14",
    ),
}
SWEEP_DIGEST = "e9d691e8a26558a3b64c28a82643cc385ccc02dfa3d5fc1a62696b71cb378037"
RUN_LOG_SHA256 = {
    "second-cl": "96d185a2fde6679486080da0da6086bd666a03094c8b543b0505f5c2f6d79f05",
    "first-mab": "b8192157995caa17761379478c8552b4ef38892fa8e1fb32c13a6bc4d35fd8b1",
}
GENERATE_ARGS = ["--data-seed", "4", "--n-subjects", "40"]
GENERATE_DIGEST = "b2224293f0c020446142fc1def0b27b2d039dc61f558bc1514dfd2800ba3526e"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_small_runs_keep_their_artifact_bytes(tmp_path, monkeypatch):
    tree_digest = load_workloads(monkeypatch).tree_digest
    digests = {}
    for name, (config, _) in PIPELINES.items():
        run_pipeline(config, tmp_path / name, **SETTINGS)
        digests[name] = tree_digest(tmp_path / name)
    run_sweep(default_plan(meta_updates=3, repetitions=1, **SETTINGS), tmp_path / "sweep")
    digests["sweep"] = tree_digest(tmp_path / "sweep")
    expected = {name: digest for name, (_, digest) in PIPELINES.items()}
    assert digests == {**expected, "sweep": SWEEP_DIGEST}


def test_run_logs_and_generated_data_keep_their_bytes(tmp_path, monkeypatch):
    for name, (config, _) in PIPELINES.items():
        run_pipeline(config, tmp_path / name, **SETTINGS)
        log = (tmp_path / name / "run_log.tsv").read_bytes()
        assert hashlib.sha256(log).hexdigest() == RUN_LOG_SHA256[name], name
    assert main(["generate", "--out", str(tmp_path / "generate"), *GENERATE_ARGS]) == 0
    assert load_workloads(monkeypatch).tree_digest(tmp_path / "generate") == GENERATE_DIGEST


CLI_DIGESTS = {
    "generate": GENERATE_DIGEST,
    "meta-train": "652ea0de0e6d364da021274957b19960a83bf42c363754d66a96c48ca9b59559",
    "fine-tune": "53b3c97ec403a0d092e25b940573845131d3e855023d4a98351c429ac0d7f8d1",
    "evaluate": "6b929fb4ca5f8a5d52e80b303e11121bf4328232bc579f636b5be93c1324e3c1",
    "curves": "562092aea65890d76f6ab1f286ff53580f6d018254ddcb19b58920545a75c152",
}


def test_cli_stage_chain_keeps_its_artifact_bytes(tmp_path, monkeypatch):
    tree_digest = load_workloads(monkeypatch).tree_digest
    data, meta, tuned = tmp_path / "generate", tmp_path / "meta-train", tmp_path / "fine-tune"
    commands = {
        "generate": GENERATE_ARGS,
        "meta-train": ["--data", str(data), "--hidden", "8", "--meta-updates", "30", "--sampler", "cl"],
        "fine-tune": ["--data", str(data), "--checkpoint", str(meta / "checkpoint.json"), "--epochs", "20"],
        "evaluate": ["--data", str(data), "--checkpoint", str(tuned / "checkpoint.json")],
        "curves": ["--log", str(meta / "run_log.tsv"), "--window", "7"],
    }
    digests = {}
    for command, flags in commands.items():
        assert main([command, "--out", str(tmp_path / command), *flags]) == 0
        digests[command] = tree_digest(tmp_path / command)
    assert digests == CLI_DIGESTS
