"""curmeta benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a curmeta checkout.  Every measurement happens in a
fresh, single-threaded worker process (perfbench/worker.py) with BLAS pinned
to one thread, started one at a time:

* a few set-up probes, which import curmeta and build the workload's inputs;
* workload processes, each running the workload once from the same seed,
  until about ``--seconds`` of wall time is used (a minimum count always runs).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over processes.  With ``--trace 1`` untraced and traced processes
alternate, and the last line carries the per-layer metrics of the traced
ones.  The line before it is a report with quartiles, sample counts, the
recorded outputs (artifact digest, test AUC) and the environment.  Any failed
pipeline or output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "meta_updates_per_s": "1/s",
    "pipelines_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# layer -> the span totals reported for it; the traced run prints these
PER_LAYER_FIELDS = {
    "nets.forward": ("calls", "busy_s"),
    "nets.grad": ("calls", "busy_s"),
    "nets.hvp": ("calls", "busy_s"),
    "metrics.compute_auc": ("calls", "busy_s"),
    "tasks.sample_episode": ("calls", "busy_s", "failed"),
    "tasks.generate_source": ("busy_s",),
    "tasks.map_labels": ("calls", "busy_s"),
    "tasks.write_split_dataset": ("busy_s",),
    "samplers.select_batch": ("calls", "busy_s"),
    "samplers.record_outcome": ("calls", "busy_s"),
    "meta.meta_train": ("busy_s", "self_s"),
    "meta.fine_tune": ("calls", "busy_s", "self_s"),
    "meta.multitask_train": ("busy_s",),
    "meta.save_checkpoint": ("busy_s",),
    "harness.run_pipeline": ("calls", "busy_s", "self_s"),
    "harness.run_sweep": ("busy_s", "self_s"),
    "harness.write_manifest": ("calls", "busy_s"),
    "cli.main": ("busy_s", "self_s"),
}
FIELD_UNITS = {"calls": "count", "failed": "count", "busy_s": "s", "self_s": "s"}
PER_LAYER = {
    f"{layer}.{field}": FIELD_UNITS[field]
    for layer, fields in PER_LAYER_FIELDS.items()
    for field in fields
}
PER_LAYER.update({"trace.overhead_ratio": "ratio", "trace.coverage": "ratio"})


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, when it is a git work tree."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(root: Path, work: Path, args, mode: str, index: int) -> tuple[dict, float]:
    env = dict(os.environ, **{name: "1" for name in BLAS_ENV})
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--out", str(work / f"{mode}{index}"),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s") from e
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summary(values: list[float]) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def collect(root: Path, work: Path, args) -> dict:
    """Run the set-up probes and the workload processes within the time budget."""
    workload = WORKLOADS[args.workload]
    modes = ["run", "trace"] if args.trace else ["run"]
    runs = {mode: [] for mode in modes}
    setups = []
    start = time.perf_counter()
    env = None
    for i in range(SETUP_PROBES):
        report, _ = run_worker(root, work, args, "setup", i)
        setups.append(report["setup_s"])
        env = report["env"]

    longest = 0.0
    index = 0
    while True:
        for mode in modes:
            report, wall = run_worker(root, work, args, mode, index)
            runs[mode].append(report)
            setups.append(report["setup_s"])
            longest = max(longest, wall)
        index += 1
        enough = len(runs["run"]) >= (1 if args.trace else workload.min_repeats)
        if enough and time.perf_counter() - start + longest * len(modes) > args.seconds:
            break
    return {"runs": runs, "setups": setups, "env": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "curmeta" / "__init__.py").is_file():
        print(f"no curmeta sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        data = collect(root, work, args)
    except BenchmarkError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = data["runs"]
    everything = [r for reports in runs.values() for r in reports]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    digests = sorted({r["digest"] for r in everything})
    problems = [p for r in everything for p in r["problems"]]
    if len(digests) != 1:
        problems.append(f"artifact digests differ across repeats of seed {args.seed}: {digests}")
        failed = max(failed, 1)

    untraced = runs["run"]
    samples = {
        "setup_s": data["setups"],
        "meta_updates_per_s": [r["meta_updates"] / r["timed_s"] for r in untraced],
        "pipelines_per_s": [(r["attempted"] - r["failed"]) / r["timed_s"] for r in untraced],
        "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
    }
    units = END_TO_END
    if args.trace:
        traced = runs["trace"]
        samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        untraced_s = statistics.median(r["timed_s"] for r in untraced)
        samples["trace.overhead_ratio"] = [r["timed_s"] / untraced_s for r in traced]
        units = PER_LAYER
    stats = {
        name: {**summary(values), "unit": units.get(name) or FIELD_UNITS[name.rsplit(".", 1)[1]]}
        for name, values in samples.items()
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "processes": {mode: len(reports) for mode, reports in runs.items()},
        "failed_ratio": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "problems": problems,
        "outputs": {"digest": digests, "test_auc": everything[0]["test_auc"]},
        "env": {"git_sha": git_sha(root), **data["env"]},
        "metrics": stats,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
