"""The benchmark's workloads: inputs from a seed, the call into curmeta, output checks.

Every workload drives curmeta only through a public entry point
(``harness.run_pipeline`` or ``cli.main``).  The entry point is looked up on
its module at call time, so a tracer installed after set-up sees the call.
curmeta itself is imported lazily, by the worker process, after it has put
the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

N_SUBJECTS = 117


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "pipeline" or "sweep"
    meta_updates: int
    sampler: str = ""
    meta_batch_size: int = 0
    gradient_mode: str = ""
    repetitions: int = 0  # sweep repetitions
    min_repeats: int = 1  # workload processes per untraced run, at least


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "meta-second-cl",
            "the paper's main cell: second-order MAML with the curriculum sampler, nets grad and hvp dominate",
            "pipeline",
            meta_updates=500,
            sampler="cl",
            meta_batch_size=5,
            gradient_mode="second",
            min_repeats=3,
        ),
        Workload(
            "meta-first-mab",
            "first-order bandit cell: zero hvp calls, and episode sampling is about a third of each meta-update",
            "pipeline",
            meta_updates=1000,
            sampler="mab",
            meta_batch_size=3,
            gradient_mode="first",
            min_repeats=3,
        ),
        Workload(
            "sweep-cli",
            "the CLI sweep over the default plan with baselines: fine-tune grads at n=2, file I/O and manifests",
            "sweep",
            meta_updates=20,
            repetitions=2,
            min_repeats=2,
        ),
    )
}


def derive_seeds(seed: int) -> tuple[int, int]:
    """data_seed and run_seed of a workload seed."""
    rng = random.Random(seed)
    return rng.randrange(1_000_000), rng.randrange(1_000_000)


@dataclass
class Outcome:
    """What one workload execution did and which of its output checks failed."""

    attempted: int = 0  # pipelines attempted
    failed: int = 0  # pipelines that raised or failed an output check
    meta_updates: int = 0  # meta-updates of completed pipelines
    expected_hvp_calls: int = 0
    problems: list[str] = field(default_factory=list)
    test_auc: list[float] = field(default_factory=list)
    digest: str = ""


def build_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Everything the timed call needs, built from the seed alone."""
    from curmeta import cli, harness, meta  # noqa: F401  (cli: the sweep's entry point)

    data_seed, run_seed = derive_seeds(seed)
    if workload.kind == "pipeline":
        config = meta.MetaConfig(
            sampler=workload.sampler,
            meta_batch_size=workload.meta_batch_size,
            gradient_mode=workload.gradient_mode,
            meta_updates=workload.meta_updates,
        )
        return {
            "config": config,
            "runs": [(config, 1)],
            "kwargs": {"data_seed": data_seed, "run_seed": run_seed, "n_subjects": N_SUBJECTS},
            "out_dir": out_dir,
        }
    plan = harness.default_plan(
        meta_updates=workload.meta_updates,
        repetitions=workload.repetitions,
        data_seed=data_seed,
        run_seed=run_seed,
    )
    argv = [
        "sweep",
        "--out", str(out_dir),
        "--meta-updates", str(workload.meta_updates),
        "--repetitions", str(workload.repetitions),
        "--data-seed", str(data_seed),
        "--run-seed", str(run_seed),
    ]
    return {
        "plan": plan,
        "runs": [(v.meta, plan.repetitions) for v in plan.variants if v.meta is not None],
        "argv": argv,
        "out_dir": out_dir,
    }


def execute(workload: Workload, inputs: dict) -> list[str]:
    """The timed section: one call into curmeta's public entry point.

    Returns the errors curmeta reported; checks of the outputs come after.
    """
    from curmeta import cli, harness

    if workload.kind == "pipeline":
        try:
            harness.run_pipeline(inputs["config"], inputs["out_dir"], **inputs["kwargs"])
        except harness.StageError as e:
            return [str(e)]
        return []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(inputs["argv"])
    return [] if code == 0 else [f"curmeta sweep exited {code}: {err.getvalue().strip()}"]


def check_outputs(workload: Workload, inputs: dict, errors: list[str]) -> Outcome:
    """Verify every artifact of the run and count failed pipelines."""
    out_dir = Path(inputs["out_dir"])
    outcome = Outcome(problems=list(errors))
    for config, count in inputs["runs"]:
        if config.gradient_mode.value == "second":
            outcome.expected_hvp_calls += (
                count * config.meta_updates * config.meta_batch_size * config.inner_steps
            )

    if workload.kind == "pipeline":
        outcome.attempted = 1
        if errors:
            outcome.failed = 1
            return outcome
        problems, auc, updates = _check_pipeline_dir(out_dir, workload.meta_updates)
        outcome.failed = int(bool(problems))
        outcome.meta_updates = 0 if problems else updates
        outcome.problems += problems
        outcome.test_auc.append(auc)
    else:
        plan = inputs["plan"]
        sweep_problems = list(errors) + _check_manifest(out_dir)
        sweep_problems += _check_results_table(out_dir, plan)
        for variant in plan.variants:
            if variant.na:
                continue
            for rep in range(plan.repetitions):
                outcome.attempted += 1
                run_dir = out_dir / "runs" / variant.label / f"rep{rep}"
                expected = variant.meta.meta_updates if variant.meta is not None else None
                problems, auc, updates = _check_pipeline_dir(run_dir, expected)
                if problems or sweep_problems:
                    outcome.failed += 1
                else:
                    outcome.meta_updates += updates
                outcome.problems += problems
                outcome.test_auc.append(auc)
        outcome.problems += sweep_problems
    outcome.digest = tree_digest(out_dir)
    return outcome


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    """sha256 over the relative path and content hash of every file in the tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(directory).as_posix()}\0{_sha256(path)}\n".encode())
    return h.hexdigest()


def _check_manifest(run_dir: Path) -> list[str]:
    """manifest.json lists every other file of its directory with a matching sha256."""
    manifest = run_dir / "manifest.json"
    if not manifest.is_file():
        return [f"{run_dir}: no manifest.json"]
    files = json.loads(manifest.read_text())["files"]
    problems = []
    for rel, digest in sorted(files.items()):
        path = run_dir / rel
        if not path.is_file():
            problems.append(f"{path}: listed in manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{path}: sha256 does not match manifest")
    return problems


def _check_pipeline_dir(run_dir: Path, meta_updates: int | None) -> tuple[list[str], float, int]:
    """Manifest, run log and result of one pipeline; returns (problems, test_auc, updates)."""
    problems = _check_manifest(run_dir)
    on_disk = {
        p.relative_to(run_dir).as_posix()
        for p in run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    if not problems:
        listed = set(json.loads((run_dir / "manifest.json").read_text())["files"])
        if on_disk != listed:
            problems.append(f"{run_dir}: manifest lists {sorted(listed)}, directory has {sorted(on_disk)}")

    updates = 0
    if meta_updates is not None:
        log = run_dir / "run_log.tsv"
        rows = log.read_text().splitlines()[1:] if log.is_file() else []
        iterations = [row.split("\t", 1)[0] for row in rows]
        if iterations != [str(i) for i in range(1, meta_updates + 1)]:
            problems.append(f"{log}: {len(rows)} records, expected iterations 1..{meta_updates}")
        else:
            updates = meta_updates

    auc = math.nan
    result = run_dir / "result.json"
    if result.is_file():
        auc = json.loads(result.read_text())["test_auc"]
    if not (isinstance(auc, float) and math.isfinite(auc) and 0.0 <= auc <= 1.0):
        problems.append(f"{result}: test_auc {auc!r} is not a finite number in [0, 1]")
        auc = math.nan
    return problems, auc, updates


def _check_results_table(out_dir: Path, plan) -> list[str]:
    """Every applicable cell of results.json aggregates all repetitions without errors."""
    path = out_dir / "results.json"
    if not path.is_file():
        return [f"{path}: missing"]
    cells = {(c["model"], c["meta_batch"], c["sampler"]): c for c in json.loads(path.read_text())["cells"]}
    problems = []
    for variant in plan.variants:
        key = (variant.cell.model, variant.cell.meta_batch, variant.cell.sampler)
        cell = cells.get(key)
        if cell is None:
            problems.append(f"{path}: no cell for {variant.label}")
        elif variant.na != cell["na"]:
            problems.append(f"{path}: cell {variant.label} has na={cell['na']}")
        elif not variant.na and (cell["n"] != plan.repetitions or cell["errors"]):
            problems.append(f"{path}: cell {variant.label} n={cell['n']} errors={cell['errors']}")
    return problems
