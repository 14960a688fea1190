"""Experiment pipeline and sweep orchestration.

A pipeline run is generate -> pretrain -> fine-tune -> evaluate -> write:
synthesize the subject-split source data, optionally pretrain an
initialization (via meta-training or the joint multi-task baseline),
fine-tune on the target task, and score the fine-tuned model on the held-out
test split.  A run directory is written once, by ``write_manifest``, when its
run completes: its artifacts plus a manifest listing the relative path and
sha256 of each, with no timestamps, so identical inputs give byte-identical trees.

A sweep runs a plan of variants over paired repetition seeds (repetition r
uses the same data and run seed for every variant) and aggregates test AUC
into a result table with one cell per (model, meta-batch, sampler) plus
baseline rows.  Structurally impossible cells (the all-task sampler with a
meta-batch unlike the pool size) are marked not applicable rather than run.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .metrics import compute_auc
from .meta import (
    MULTITASK_RATE,
    FineTuneConfig,
    MetaConfig,
    Provenance,
    TrainedModel,
    config_to_dict,
    fine_tune,
    format_checkpoint,
    infer,
    initial_params,
    meta_train,
    multitask_train,
)
from .nets import Architecture
from .samplers import SamplerKind
from .tasks import (
    K5,
    SPLIT_FILES,
    SourceConfig,
    TASKS,
    check_fields,
    derive_stream,
    format_split_dataset,
    generate_source,
    map_labels,
)


class StageError(RuntimeError):
    """A pipeline stage failed; the message is prefixed with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


BASELINE_KINDS = ("plain", "multitask")
DEFAULT_HIDDEN = 24


def default_architecture(dim: int, hidden: int = DEFAULT_HIDDEN) -> Architecture:
    return Architecture((dim, hidden, 2), "relu")


def write_manifest(out_dir, files: dict[str, str], config: dict | None = None, seeds: dict | None = None) -> Path:
    """Write an artifact directory: each text of ``files`` (keyed by relative
    path), then manifest.json with the config, seeds and sha256 of every text."""
    out_dir = Path(out_dir)
    data = {rel: text.encode() for rel, text in files.items()}
    hashes = {rel: hashlib.sha256(b).hexdigest() for rel, b in data.items()}
    doc = {"config": config or {}, "seeds": seeds or {}, "files": hashes}
    data["manifest.json"] = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    for rel, b in data.items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b)
    return out_dir / "manifest.json"


@contextmanager
def stage(name: str):
    """Re-raise any failure inside the block as a StageError of stage ``name``."""
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, str(e)) from e


class _Run:
    """One run of a repetition: its recipe (a meta one with the run seed), seeds and artifact texts."""

    def __init__(self, recipe, out_dir, data_seed: int, run_seed: int):
        self.recipe = replace(recipe, seed=run_seed) if isinstance(recipe, MetaConfig) else recipe
        self.out_dir = out_dir
        self.data_seed = data_seed
        self.run_seed = run_seed
        self.files: dict[str, str] = {}

    def pretrain(self, arch, data, plan: ExperimentPlan, trained) -> TrainedModel:
        """The pretrained model; a meta run gets ``trained``, its entry of a ``meta_train`` call."""
        with stage("meta-train"):
            if isinstance(self.recipe, MetaConfig):
                if isinstance(trained, Exception):
                    raise trained
                model, log = trained
                self.files["run_log.tsv"] = log.to_tsv()
            elif self.recipe == "plain":
                params = initial_params(arch, self.run_seed)
                model = TrainedModel(arch, params, Provenance({"baseline": "plain"}, self.run_seed))
            else:
                model = multitask_train(arch, data, plan.mt_iterations, self.run_seed)
        return model

    def finish(self, final, data) -> dict:
        """Checkpoint and score the fine-tuned model and write the run directory
        (stage ``write``), or re-raise its fine-tune failure, writing nothing."""
        with stage("fine-tune"):
            if isinstance(final, Exception):
                raise final
            self.files["checkpoint.json"] = format_checkpoint(final)
        with stage("evaluate"):
            test = map_labels(K5, data.test)
            test_auc = compute_auc(infer(final, test.inputs), test.labels)

        meta = isinstance(self.recipe, MetaConfig)
        kind = "meta" if meta else self.recipe
        result = {
            "kind": kind,
            "data_seed": self.data_seed,
            "run_seed": self.run_seed,
            "test_auc": test_auc,
            "config": config_to_dict(self.recipe) if meta else {},
        }
        self.files["result.json"] = json.dumps(result, indent=2, sort_keys=True) + "\n"
        with stage("write"):
            write_manifest(
                self.out_dir,
                self.files,
                config=result["config"] if result["config"] else {"pretrain": kind},
                seeds={"data_seed": self.data_seed, "run_seed": self.run_seed},
            )
        return result


def _run_repetition(plan: ExperimentPlan, rep: int, runs) -> list:
    """Take ``runs``, ``(recipe, out_dir)`` pairs, through every stage of
    repetition ``rep`` of ``plan``: data seed ``plan.data_seed + rep`` and run
    seed ``plan.run_seed + rep`` for every run.

    Generates the data and formats its TSVs once for every run, meta-trains
    the meta runs (one ``meta_train`` call, which stacks them) and pretrains
    the baselines, fine-tunes every pretrained run in lockstep (one
    ``fine_tune`` call: the runs share the data and the mini-batch order),
    then scores each one and writes its directory.  Returns each run's result
    record or the StageError that stopped it; a run stopped before ``write`` writes nothing.
    """
    if not runs:
        return []
    data_seed, run_seed = plan.data_seed + rep, plan.run_seed + rep
    runs = [_Run(recipe, out_dir, data_seed, run_seed) for recipe, out_dir in runs]
    try:
        with stage("generate"):
            source = SourceConfig(seed=data_seed)
            data = generate_source(source, plan.n_subjects)
            texts = format_split_dataset(data)
            files = {f"data/{SPLIT_FILES[name]}": text for name, text in texts.items()}
    except StageError as e:
        return [e] * len(runs)
    arch = default_architecture(source.dim, plan.hidden)
    for run in runs:
        run.files.update(files)
    meta = [i for i, run in enumerate(runs) if isinstance(run.recipe, MetaConfig)]
    trained = dict(zip(meta, meta_train(arch, [runs[i].recipe for i in meta], data))) if meta else {}
    outcomes = [None] * len(runs)
    models = {}
    for i, run in enumerate(runs):
        try:
            models[i] = run.pretrain(arch, data, plan, trained.get(i))
        except StageError as e:
            outcomes[i] = e
    if models:
        tuned = fine_tune(list(models.values()), K5, data, plan.fine_tune, rng=derive_stream(run_seed, 1))
        for i, final in zip(models, tuned):
            try:
                outcomes[i] = runs[i].finish(final, data)
            except StageError as e:
                outcomes[i] = e
    return outcomes


def run_pipeline(recipe, out_dir, **settings) -> dict:
    """Run one full experiment and return the result record.

    ``recipe`` selects the pretraining stage: a MetaConfig runs meta-training
    (its seed replaced by the run seed), the string "plain" skips pretraining
    and fine-tunes from a fresh initialization, "multitask" pretrains with the
    joint multi-head baseline; any other recipe fails before data is
    generated.  ``settings`` are ``ExperimentPlan`` fields by name, with the
    plan's defaults and checks.  Artifacts: data/ split TSVs, run_log.tsv
    (meta only), checkpoint.json, result.json, manifest.json, written once
    it completes.  A pipeline is a one-run repetition of a one-repetition
    plan, so a sweep's run directory equals the pipeline with the same seeds.
    """
    if not (isinstance(recipe, MetaConfig) or (isinstance(recipe, str) and recipe in BASELINE_KINDS)):
        raise StageError("pretrain", f"unknown pipeline designator {recipe!r}")
    plan = ExperimentPlan((), repetitions=1, **settings)
    [result] = _run_repetition(plan, 0, [(recipe, out_dir)])
    if isinstance(result, StageError):
        raise result
    return result


# --- result tables --------------------------------------------------------------

@dataclass(frozen=True)
class CellKey:
    model: str
    meta_batch: int
    sampler: str


@dataclass(frozen=True)
class Cell:
    """Aggregate of one table cell: mean/std test AUC over completed repetitions."""

    mean: float | None = None
    std: float | None = None
    n: int = 0
    errors: tuple[str, ...] = ()
    na: bool = False

    def __post_init__(self):
        object.__setattr__(self, "errors", tuple(self.errors))


@dataclass(frozen=True)
class ResultTable:
    cells: dict[CellKey, Cell] = field(default_factory=dict)

    def cell(self, model: str, meta_batch: int, sampler: str) -> Cell:
        return self.cells[CellKey(model, meta_batch, sampler)]

    def emit(self) -> str:
        doc = {
            "format": "curmeta-results-v1",
            "cells": [{**asdict(k), **asdict(c)} for k, c in self.cells.items()],  # every field of key and cell
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        """Fixed-width text table: sampler columns for the meta grid, then baselines."""
        grid = [k for k in self.cells if k.sampler]
        grid_rows = list(dict.fromkeys((k.model, k.meta_batch) for k in grid))  # in first-appearance order
        samplers = list(dict.fromkeys(k.sampler for k in grid))
        baselines = [(k, c) for k, c in self.cells.items() if not k.sampler]

        def fmt(c: Cell) -> str:
            if c.na:
                return "N/A"
            if c.n == 0:
                return "failed"
            return f"{c.mean:.3f} +/- {c.std:.3f}"

        width = 18
        lines = []
        if grid_rows:
            header = ["model".ljust(16), "|K|".ljust(5)] + [s.ljust(width) for s in samplers]
            lines.append("".join(header).rstrip())
            for model, mb in grid_rows:
                row = [model.ljust(16), str(mb).ljust(5)]
                for s in samplers:
                    cell = self.cells.get(CellKey(model, mb, s))
                    row.append(("-" if cell is None else fmt(cell)).ljust(width))
                lines.append("".join(row).rstrip())
        if baselines:
            if lines:
                lines.append("")
            lines.append("baseline".ljust(21) + "test AUC")
            for k, c in baselines:
                lines.append(k.model.ljust(21) + fmt(c))
        return "\n".join(lines) + "\n"


# --- sweep plans ----------------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """One column of work in a sweep: a pretraining recipe mapped to a table cell."""

    label: str
    cell: CellKey
    meta: MetaConfig | None = None
    baseline: str = ""
    na: bool = False

    def __post_init__(self):
        ways = sum([self.meta is not None, bool(self.baseline), self.na])
        if ways != 1:
            raise ValueError(f"variant {self.label!r} must be exactly one of meta/baseline/na")
        if self.baseline and self.baseline not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline {self.baseline!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    variants: tuple[Variant, ...]
    repetitions: int = 10
    data_seed: int = SourceConfig.seed
    run_seed: int = MetaConfig.seed
    fine_tune: FineTuneConfig = field(default_factory=FineTuneConfig)
    hidden: int = DEFAULT_HIDDEN
    n_subjects: int = 117
    mt_iterations: int = MetaConfig.meta_updates

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        for name in ("label", "cell"):
            values = [getattr(v, name) for v in self.variants]
            if len(set(values)) != len(values):
                raise ValueError(f"variant {name}s must be unique")
        check_fields(
            self,
            integers={
                "repetitions": 1,
                "data_seed": 0,
                "run_seed": 0,
                "hidden": 1,
                "n_subjects": None,  # the generate stage checks it
                "mt_iterations": 0,
            },
        )
        if not isinstance(self.fine_tune, FineTuneConfig):
            raise ValueError(f"fine_tune must be a FineTuneConfig, got {self.fine_tune!r}")


# the meta rows of the grid, each under every sampler:
# (table model, label prefix, meta-batch, exclude the target task)
GRID_ROWS = (
    ("BSML", "bsml-k", 3, False),
    ("BSML", "bsml-k", 5, False),
    ("BSML-NS", "bsml-ns-k", len(TASKS) - 1, True),
)


def default_plan(
    meta_updates: int = MetaConfig.meta_updates, include_baselines: bool = True, **settings
) -> ExperimentPlan:
    """The full comparison grid.

    Every ``GRID_ROWS`` row under every sampler: meta-trained models with
    meta-batch 3 and 5, and the no-target-task ablation (pool of four tasks,
    meta-batch 4); then the plain and multi-task baselines.  The all-task
    sampler is only defined when the meta-batch equals the row's pool size,
    so its meta-batch 3 cell is marked N/A.  ``meta_updates`` is also the
    multi-task budget ``mt_iterations``; every other setting is an
    ``ExperimentPlan`` field passed by name.
    """
    variants = []
    for model, prefix, mb, exclude in GRID_ROWS:
        for sk in SamplerKind:
            label, cell = f"{prefix}{mb}-{sk.value}", CellKey(model, mb, sk.value)
            if sk is SamplerKind.ALL_TASK and mb != len(TASKS) - exclude:
                variants.append(Variant(label, cell, na=True))
            else:
                config = MetaConfig(
                    meta_updates=meta_updates, meta_batch_size=mb, sampler=sk, exclude_target_task=exclude
                )
                variants.append(Variant(label, cell, meta=config))
    if include_baselines:
        variants.append(Variant("plain", CellKey("Plain", 0, ""), baseline="plain"))
        variants.append(Variant("multitask", CellKey("Multi-task", 0, ""), baseline="multitask"))
    return ExperimentPlan(tuple(variants), mt_iterations=meta_updates, **settings)


def _aggregate(outcomes) -> Cell:
    """The cell of one variant from its outcomes in repetition order: result records or StageErrors."""
    aucs = [o["test_auc"] for o in outcomes if not isinstance(o, StageError)]
    errors = [f"rep{rep}: {o}" for rep, o in enumerate(outcomes) if isinstance(o, StageError)]
    if not aucs:
        return Cell(errors=errors)
    return Cell(float(np.mean(aucs)), float(np.std(aucs, ddof=0)), len(aucs), errors)


def run_sweep(plan: ExperimentPlan, out_dir) -> ResultTable:
    """Run every variant of the plan and write results.json / results.txt.

    Repetition r uses data seed ``data_seed + r`` and run seed ``run_seed + r``
    for every variant, so comparisons across variants are paired.  The sweep
    runs repetition by repetition, all of a repetition's variants together
    (see ``_run_repetition``).  ``run_pipeline`` is the same repetition with
    one run, so every run directory is byte-identical to ``run_pipeline``
    with the same seeds.  A failing run is recorded in the cell's error list,
    writes no run directory and does not abort the sweep.
    """
    out_dir = Path(out_dir)
    live = [v for v in plan.variants if not v.na]
    outcomes = {v.label: [] for v in live}  # each live variant's outcomes in repetition order
    for rep in range(plan.repetitions):
        runs = [
            (v.meta if v.meta is not None else v.baseline, out_dir / "runs" / v.label / f"rep{rep}")
            for v in live
        ]
        for v, outcome in zip(live, _run_repetition(plan, rep, runs)):
            outcomes[v.label].append(outcome)

    table = ResultTable({v.cell: Cell(na=True) if v.na else _aggregate(outcomes[v.label]) for v in plan.variants})
    plan_doc = {
        "variants": [
            {
                "label": v.label,
                "cell": [v.cell.model, v.cell.meta_batch, v.cell.sampler],
                "meta": config_to_dict(v.meta) if v.meta is not None else None,
                "baseline": v.baseline,
                "na": v.na,
            }
            for v in plan.variants
        ],
        "repetitions": plan.repetitions,
        "fine_tune": config_to_dict(plan.fine_tune),
        "hidden": plan.hidden,
        "n_subjects": plan.n_subjects,
        "mt_iterations": plan.mt_iterations,
        "mt_rate": MULTITASK_RATE,
    }
    write_manifest(
        out_dir,
        {"results.json": table.emit(), "results.txt": table.render_text()},
        config=plan_doc,
        seeds={"data_seed": plan.data_seed, "run_seed": plan.run_seed},
    )
    return table
