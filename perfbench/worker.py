"""One benchmark process: set up a workload, run it once, check its outputs.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace --out DIR

Prints one JSON object on stdout.  ``setup`` stops after set-up (import
curmeta and build the inputs) and also records the environment; ``run``
times one execution of the workload; ``trace`` does the same with every
public curmeta function wrapped by the span tracer.  run.py starts this
script with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports for itself, read from the library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cgroup_cpu_quota() -> str | None:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            continue
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, build_inputs, check_outputs, execute

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import curmeta

    if Path(curmeta.__file__).resolve().parent != ROOT / "src" / "curmeta":
        raise SystemExit(f"imported curmeta from {curmeta.__file__}, not from the checkout")
    inputs = build_inputs(workload, args.seed, args.out)
    setup_s = time.perf_counter() - start
    report = {"setup_s": setup_s}
    if args.mode == "setup":
        report["env"] = environment()
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        errors = execute(workload, inputs)
        timed_s = time.perf_counter() - t0
        peak = peak_rss_mib()
        outcome = check_outputs(workload, inputs, errors)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    report.update(
        timed_s=timed_s,
        peak_rss_mib=peak,
        attempted=outcome.attempted,
        failed=outcome.failed,
        meta_updates=outcome.meta_updates,
        problems=outcome.problems,
        test_auc=outcome.test_auc,
        digest=outcome.digest,
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        if outcome.failed == 0 and layers["nets.hvp.calls"] != outcome.expected_hvp_calls:
            report["failed"] = outcome.attempted
            report["problems"].append(
                f"nets.hvp.calls is {layers['nets.hvp.calls']}, expected {outcome.expected_hvp_calls}"
            )
        layers["trace.coverage"] = tracer.inner_self_s() / timed_s
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
