"""Pinned artifact bytes of small end-to-end runs.

Every output file of a run is a pure function of its seeds, so a change that
claims to keep the numbers must keep these tree digests.  They are computed
with the benchmark's own ``tree_digest`` (perfbench/workloads.py, loaded from
its file as tests/test_traced_names.py loads the tracer) and cover the
second-order curriculum pipeline, the first-order bandit pipeline, a
default-plan sweep, whose fine-tune is a lockstep stack of 13 models, and the
CLI's stage chain (generate, meta-train, fine-tune, evaluate), each stage
reading the files of the stage before.  The same digests hold with BLAS at one thread and at its default thread count.
"""

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
        "f71d1cf18d46d1ab3450832d6905c69dff7b1aae1689e5580afbe8044324cb38",
    ),
    "first-mab": (
        MetaConfig(meta_updates=30, sampler="mab", gradient_mode="first", meta_batch_size=3),
        "9fb9d74f1df9abf7536824974b7d72b3d43f2a1226635e43c75e51bd0dfd846b",
    ),
}
SWEEP_DIGEST = "d288b0c2f6574642f2b13ff974d6effc35c7823bd6172e6b586e7ac0a9464dd1"


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


CLI_DIGESTS = {
    "generate": "b2224293f0c020446142fc1def0b27b2d039dc61f558bc1514dfd2800ba3526e",
    "meta-train": "7882d208c60407b76b6c0b7b221be09632f91e74a893f8edbfd53eb7ed7416f2",
    "fine-tune": "e0aeb962aec27826913dfc2dac147983f6597a9954eaf976b66e12d13e840ff1",
    "evaluate": "06695eae5cd3fb47d88c14a3d957ee45df251ab5c9715ba308582ab2322573a6",
}


def test_cli_stage_chain_keeps_its_artifact_bytes(tmp_path, monkeypatch):
    tree_digest = load_workloads(monkeypatch).tree_digest
    data, meta, tuned = tmp_path / "generate", tmp_path / "meta-train", tmp_path / "fine-tune"
    commands = {
        "generate": ["--data-seed", "4", "--n-subjects", "40"],
        "meta-train": ["--data", str(data), "--hidden", "8", "--meta-updates", "30", "--sampler", "cl"],
        "fine-tune": ["--data", str(data), "--checkpoint", str(meta / "checkpoint.json"), "--epochs", "20"],
        "evaluate": ["--data", str(data), "--checkpoint", str(tuned / "checkpoint.json")],
    }
    digests = {}
    for command, flags in commands.items():
        assert main([command, "--out", str(tmp_path / command), *flags]) == 0
        digests[command] = tree_digest(tmp_path / command)
    assert digests == CLI_DIGESTS
