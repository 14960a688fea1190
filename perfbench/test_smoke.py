"""Tiny-budget smoke test of the benchmark.

    python3 -m pytest perfbench -q

Runs each workload shape with a handful of meta-updates in this process,
with and without the tracer, checks the outputs the way the benchmark does,
and checks that BENCHMARK.json declares exactly the metrics run.py prints.
The sweep shape runs with one repetition and no baselines to stay short.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_inputs, check_outputs, execute  # noqa: E402


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], meta_updates=3, repetitions=1)


@pytest.mark.parametrize("name", ["meta-second-cl", "meta-first-mab"])
def test_pipeline_workload_outputs_check_out(tmp_path, name):
    workload = tiny(name)
    digests = set()
    for rep in range(2):
        inputs = build_inputs(workload, seed=7, out_dir=tmp_path / f"rep{rep}")
        outcome = check_outputs(workload, inputs, execute(workload, inputs))
        assert outcome.problems == []
        assert (outcome.attempted, outcome.failed, outcome.meta_updates) == (1, 0, 3)
        assert 0.0 <= outcome.test_auc[0] <= 1.0
        digests.add(outcome.digest)
    assert len(digests) == 1


def test_tampered_artifact_is_a_failure(tmp_path):
    workload = tiny("meta-first-mab")
    inputs = build_inputs(workload, seed=7, out_dir=tmp_path)
    errors = execute(workload, inputs)
    (tmp_path / "run_log.tsv").write_text("iteration\n1\n")
    outcome = check_outputs(workload, inputs, errors)
    assert outcome.failed == 1 and len(outcome.problems) == 2  # sha256 and record count


def test_traced_pipeline_counts_hvp_calls(tmp_path):
    workload = tiny("meta-second-cl")
    inputs = build_inputs(workload, seed=3, out_dir=tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        outcome = check_outputs(workload, inputs, execute(workload, inputs))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert outcome.failed == 0
    assert layers["nets.hvp.calls"] == outcome.expected_hvp_calls == 25 * 3
    assert layers["tasks.sample_episode.calls"] == 5 * 3
    assert layers["harness.run_pipeline.calls"] == 1
    assert layers["meta.fine_tune.calls"] == 1
    # self times add up to the entry span; the inner layers' share of it is below 1
    busy = layers["harness.run_pipeline.busy_s"]
    own = sum(value for name, value in layers.items() if name.endswith(".self_s"))
    assert math.isclose(own, busy, rel_tol=1e-9)
    assert 0.0 < tracer.inner_self_s() < busy


def test_traced_sweep_sees_names_imported_into_other_modules(tmp_path):
    workload = tiny("sweep-cli")
    inputs = build_inputs(workload, seed=5, out_dir=tmp_path)
    inputs["argv"].append("--no-baselines")
    inputs["plan"] = dataclasses.replace(
        inputs["plan"], variants=tuple(v for v in inputs["plan"].variants if v.meta or v.na)
    )
    tracer = Tracer()
    tracer.install()
    try:
        outcome = check_outputs(workload, inputs, execute(workload, inputs))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert outcome.problems == []
    assert outcome.attempted == 11
    assert layers["cli.main.calls"] == 1
    assert layers["harness.run_sweep.calls"] == 1
    assert layers["harness.run_pipeline.calls"] == 11
    assert layers["meta.fine_tune.calls"] == 11
    assert layers["nets.hvp.calls"] == outcome.expected_hvp_calls


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
