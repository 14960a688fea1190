"""The benchmark's workloads (perfbench/workloads.py) call curmeta's entry points.

A call that no longer binds crashes every benchmark run, so each workload's
inputs must still fit the entry point it drives.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from curmeta import cli, harness

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up by name
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_calls_bind_to_the_entry_points(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.build_inputs(workload, 1, tmp_path)  # a sweep builds its plan by default_plan
    if workload.kind == "pipeline":
        signature = inspect.signature(harness.run_pipeline)
        signature.bind(inputs["config"], inputs["out_dir"], **inputs["kwargs"])
        harness.ExperimentPlan((), **inputs["kwargs"])  # every keyword is a plan setting
    else:
        cli.build_parser().parse_args(inputs["argv"])
