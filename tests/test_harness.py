"""Tests for the experiment pipeline, result tables, sweeps and curve extraction."""

import hashlib
import json
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from curmeta.harness import (
    Cell,
    CellKey,
    ExperimentPlan,
    ResultTable,
    StageError,
    Variant,
    default_architecture,
    default_plan,
    run_pipeline,
    run_sweep,
    write_manifest,
)
from curmeta.meta import FineTuneConfig, MetaConfig, RunLog, emit_curves, meta_train
from curmeta.tasks import SourceConfig, format_samples, generate_source

SMALL_SOURCE = SourceConfig(dim=4, seed=2)  # every split holds both target labels
SMALL_ARCH = default_architecture(4, hidden=6)
QUICK_META = MetaConfig(meta_updates=2, inner_steps=2, meta_batch_size=2)
QUICK_FT = FineTuneConfig(epochs=2)


def quick_pipeline(recipe, out_dir, **kw):
    kw.setdefault("hidden", 6)
    kw.setdefault("n_subjects", 40)  # every split of data seeds 0-11 holds both target labels
    kw.setdefault("fine_tune", QUICK_FT)
    kw.setdefault("mt_iterations", 3)
    return run_pipeline(recipe, out_dir, **kw)


# ------------------------------------------------------------------ pipeline


def test_pipeline_meta_artifacts_and_manifest(tmp_path):
    result = quick_pipeline(QUICK_META, tmp_path, data_seed=1, run_seed=2)
    for name in ("run_log.tsv", "checkpoint.json", "result.json", "manifest.json"):
        assert (tmp_path / name).exists()
    for name in ("train.tsv", "validation.tsv", "test.tsv"):
        assert (tmp_path / "data" / name).exists()

    assert result["kind"] == "meta"
    assert result["data_seed"] == 1 and result["run_seed"] == 2
    assert 0.0 <= result["test_auc"] <= 1.0
    assert result["config"]["meta_updates"] == 2
    assert json.loads((tmp_path / "result.json").read_text()) == result

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == {"data_seed": 1, "run_seed": 2}
    assert manifest["config"]["meta_updates"] == 2
    for rel, digest in manifest["files"].items():
        actual = hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
        assert actual == digest, rel
    assert "run_log.tsv" in manifest["files"]
    assert "data/train.tsv" in manifest["files"]
    # the data follows data_seed, the seed the manifest records
    expected = format_samples(generate_source(SourceConfig(seed=1), 40).train)
    assert (tmp_path / "data" / "train.tsv").read_text() == expected


def test_pipeline_runs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ra = quick_pipeline(QUICK_META, a, data_seed=3, run_seed=4)
    rb = quick_pipeline(QUICK_META, b, data_seed=3, run_seed=4)
    assert ra == rb
    for rel in (
        "run_log.tsv",
        "checkpoint.json",
        "result.json",
        "manifest.json",
        "data/train.tsv",
    ):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_pipeline_run_seed_changes_outcome(tmp_path):
    ra = quick_pipeline(QUICK_META, tmp_path / "a", data_seed=3, run_seed=4)
    rb = quick_pipeline(QUICK_META, tmp_path / "b", data_seed=3, run_seed=5)
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() != (
        tmp_path / "b" / "checkpoint.json"
    ).read_bytes()
    assert ra["test_auc"] != rb["test_auc"] or True  # AUC may tie; params must differ


def test_pipeline_plain_baseline(tmp_path):
    result = quick_pipeline("plain", tmp_path)
    assert result["kind"] == "plain"
    assert result["config"] == {}
    assert not (tmp_path / "run_log.tsv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == {"pretrain": "plain"}


def test_pipeline_multitask_baseline(tmp_path):
    result = quick_pipeline("multitask", tmp_path)
    assert result["kind"] == "multitask"
    assert (tmp_path / "checkpoint.json").exists()


def recorded_seeds(run_dir) -> tuple:
    """The recipe seed that result.json, manifest.json and checkpoint.json of a run record."""
    names = ("result.json", "manifest.json", "checkpoint.json")
    result, manifest, checkpoint = (json.loads((run_dir / name).read_text()) for name in names)
    return result["config"]["seed"], manifest["config"]["seed"], checkpoint["seed"]


def test_a_meta_run_records_the_seed_it_trained_with(tmp_path):
    # the recipe's own seed is 0; the run trains with run seed 7
    quick_pipeline(QUICK_META, tmp_path / "pipeline", data_seed=3, run_seed=7)
    assert recorded_seeds(tmp_path / "pipeline") == (7, 7, 7)
    plan = ExperimentPlan(
        (Variant("meta", CellKey("BSML", 2, "random"), meta=QUICK_META),),
        repetitions=2, data_seed=3, run_seed=7, fine_tune=QUICK_FT, hidden=6, n_subjects=40,
    )
    run_sweep(plan, tmp_path / "sweep")
    for rep in range(2):
        assert recorded_seeds(tmp_path / "sweep" / "runs" / "meta" / f"rep{rep}") == (7 + rep,) * 3


@pytest.mark.parametrize("baseline", ["plain", "multitask"])
def test_a_baseline_checkpoint_records_the_run_seed(tmp_path, baseline):
    quick_pipeline(baseline, tmp_path, data_seed=3, run_seed=7)
    assert json.loads((tmp_path / "checkpoint.json").read_text())["seed"] == 7


def test_pipeline_rejects_unknown_designator(tmp_path):
    with pytest.raises(StageError) as exc:
        quick_pipeline("frobnicate", tmp_path)
    assert exc.value.stage == "pretrain"
    assert str(exc.value).startswith("[pretrain]")


@pytest.mark.parametrize("recipe", [42, None, ("plain",), "bogus"])
def test_pipeline_rejects_a_recipe_before_generating_data(recipe, tmp_path):
    out_dir = tmp_path / "run"
    with pytest.raises(StageError, match=r"^\[pretrain\] unknown pipeline designator"):
        quick_pipeline(recipe, out_dir)
    assert not out_dir.exists()


def test_pipeline_wraps_generate_failure(tmp_path):
    with pytest.raises(StageError) as exc:
        quick_pipeline(QUICK_META, tmp_path, n_subjects=4)  # below the split minimum
    assert exc.value.stage == "generate"


def test_pipeline_wraps_training_failure(tmp_path):
    bad = MetaConfig(meta_updates=1, sampler="alltask", meta_batch_size=3)
    with pytest.raises(StageError) as exc:
        quick_pipeline(bad, tmp_path)
    assert exc.value.stage == "meta-train"


def test_pipeline_wraps_non_finite_fine_tune(tmp_path):
    diverging = FineTuneConfig(epochs=2, learning_rate=1e300)
    with pytest.raises(StageError) as exc, np.errstate(over="ignore", invalid="ignore"):
        quick_pipeline("plain", tmp_path, fine_tune=diverging)
    assert exc.value.stage == "fine-tune"
    assert str(exc.value) == "[fine-tune] non-finite parameters during fine-tuning"
    assert not (tmp_path / "checkpoint.json").exists()
    assert not any(tmp_path.iterdir())  # a failed run writes nothing


def test_run_pipeline_into_a_file_fails_the_write_stage(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    with pytest.raises(StageError) as exc:
        quick_pipeline("plain", taken)
    assert exc.value.stage == "write"
    assert taken.read_text() == "not a directory\n"


def empty_plan(**settings):
    return ExperimentPlan((), **settings)


# every config field with a least value: (config, field) -> (least, one below it)
BOUNDED_FIELDS = {
    (MetaConfig, "adaptation_rate"): (0, -0.5),
    (MetaConfig, "meta_rate"): (0, -0.5),
    (MetaConfig, "meta_updates"): (0, -1),
    (MetaConfig, "inner_steps"): (1, 0),
    (MetaConfig, "n_tr"): (2, 1),
    (MetaConfig, "n_val"): (2, 1),
    (MetaConfig, "meta_batch_size"): (1, 0),
    (MetaConfig, "seed"): (0, -1),
    (FineTuneConfig, "batch_size"): (1, 0),
    (FineTuneConfig, "epochs"): (0, -1),
    (SourceConfig, "dim"): (2, 1),
    (SourceConfig, "seed"): (0, -1),
    (empty_plan, "repetitions"): (1, 0),
    (empty_plan, "data_seed"): (0, -1),
    (empty_plan, "run_seed"): (0, -1),
    (empty_plan, "hidden"): (1, 0),
    (empty_plan, "mt_iterations"): (0, -1),
}


@pytest.mark.parametrize(
    "make, name", list(BOUNDED_FIELDS), ids=[f"{make.__name__}.{name}" for make, name in BOUNDED_FIELDS]
)
def test_every_bounded_config_field_fails_naming_its_least_value(make, name):
    least, below = BOUNDED_FIELDS[make, name]
    assert getattr(make(**{name: least}), name) == least
    with pytest.raises(ValueError) as exc:
        make(**{name: below})
    assert str(exc.value) == f"{name} must be >= {least}, got {below!r}"


def test_run_pipeline_rejects_bad_settings_naming_them(tmp_path, monkeypatch):
    from curmeta import harness

    generated = []
    monkeypatch.setattr(harness, "generate_source", lambda *args: generated.append(args))
    for name, value in [
        ("n_subjects", 30.0),
        ("data_seed", 1.5),
        ("fine_tune", {"epochs": 2}),
        ("hidden", 0),
        ("mt_iterations", -3),
        ("run_seed", -1),
        ("data_seed", -1),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_pipeline(QUICK_META, tmp_path, **{name: value})
    assert generated == []
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------------- manifests


def test_write_manifest_hashes_and_relative_paths(tmp_path):
    path = write_manifest(tmp_path / "out", {"sub/x.txt": "hello\n"}, config={"a": 1}, seeds={"s": 2})
    assert path == tmp_path / "out" / "manifest.json"
    doc = json.loads(path.read_text())
    assert doc["config"] == {"a": 1}
    assert doc["seeds"] == {"s": 2}
    assert doc["files"] == {"sub/x.txt": hashlib.sha256(b"hello\n").hexdigest()}
    on_disk = (tmp_path / "out" / "sub" / "x.txt").read_bytes()
    assert doc["files"]["sub/x.txt"] == hashlib.sha256(on_disk).hexdigest()


# ------------------------------------------------------------ result tables


def grid_table():
    return ResultTable(
        (
            (CellKey("BSML", 5, "random"), Cell(0.82, 0.02, 10)),
            (CellKey("BSML", 5, "cl"), Cell(0.85, 0.01, 10)),
            (CellKey("BSML", 3, "alltask"), Cell(na=True)),
            (CellKey("BSML", 3, "random"), Cell(None, None, 0, ("rep0: [meta-train] boom",))),
            (CellKey("Plain", 0, ""), Cell(0.70, 0.05, 10)),
        )
    )


def test_result_table_lookup():
    table = grid_table()
    assert table.cell("BSML", 5, "cl").mean == 0.85
    assert table.cell("BSML", 3, "alltask").na
    with pytest.raises(KeyError):
        table.cell("BSML", 4, "cl")


def test_result_table_rejects_duplicate_keys():
    key = CellKey("BSML", 5, "cl")
    with pytest.raises(ValueError):
        ResultTable(((key, Cell(na=True)), (key, Cell(na=True))))


def test_result_table_emit_parse_round_trip():
    table = grid_table()
    assert ResultTable.parse(table.emit()) == table


def test_result_table_parse_rejects_foreign_json():
    with pytest.raises(ValueError):
        ResultTable.parse('{"format": "other", "cells": []}')


def test_result_table_render_marks_special_cells():
    text = grid_table().render_text()
    assert "N/A" in text
    assert "failed" in text
    assert "0.850 +/- 0.010" in text
    assert "Plain" in text
    # grid header lists sampler columns once
    assert text.splitlines()[0].startswith("model")


# -------------------------------------------------------------------- plans


def test_variant_requires_exactly_one_recipe():
    key = CellKey("BSML", 5, "cl")
    with pytest.raises(ValueError):
        Variant("x", key)  # nothing set
    with pytest.raises(ValueError):
        Variant("x", key, meta=MetaConfig(), baseline="plain")
    with pytest.raises(ValueError):
        Variant("x", key, baseline="mystery")


def test_experiment_plan_validation():
    v = Variant("a", CellKey("BSML", 5, "cl"), meta=MetaConfig())
    with pytest.raises(ValueError):
        ExperimentPlan((v, v))
    with pytest.raises(ValueError):
        ExperimentPlan((v,), repetitions=0)
    # each bad field fails at the plan, naming the field, not at a later stage
    for name, value in [
        ("data_seed", 1.5),
        ("run_seed", "0"),
        ("n_subjects", 30.0),
        ("hidden", True),
        ("mt_iterations", None),
        ("repetitions", 1.0),
        ("hidden", 0),
        ("data_seed", -1),
        ("run_seed", -1),
        ("mt_iterations", -3),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentPlan((v,), **{name: value})
    with pytest.raises(ValueError, match="^fine_tune must be a FineTuneConfig"):
        ExperimentPlan((v,), fine_tune={"epochs": 2})


def test_default_plan_structure():
    plan = default_plan(meta_updates=100)
    assert len(plan.variants) == 14
    labels = [v.label for v in plan.variants]
    assert len(set(labels)) == 14

    na = [v for v in plan.variants if v.na]
    assert len(na) == 1
    assert na[0].cell == CellKey("BSML", 3, "alltask")

    ns = [v for v in plan.variants if v.cell.model == "BSML-NS"]
    assert len(ns) == 4
    for v in ns:
        assert v.meta.exclude_target_task
        assert v.meta.meta_batch_size == 4
        assert v.cell.meta_batch == 4

    metas = [v for v in plan.variants if v.meta is not None]
    assert all(v.meta.meta_updates == 100 for v in metas)
    baselines = [v for v in plan.variants if v.baseline]
    assert sorted(v.baseline for v in baselines) == ["multitask", "plain"]


def plan_defaults():
    """Every ExperimentPlan setting's class default, by field name."""
    return {
        f.name: f.default_factory() if f.default is MISSING else f.default
        for f in fields(ExperimentPlan)
        if f.name != "variants"
    }


def test_entry_points_take_the_plan_defaults(tmp_path, monkeypatch):
    from curmeta import harness

    plan = default_plan()
    assert {name: getattr(plan, name) for name in plan_defaults()} == plan_defaults()
    assert {v.meta.meta_updates for v in plan.variants if v.meta is not None} == {MetaConfig.meta_updates}

    captured = []
    monkeypatch.setattr(harness, "_run_repetition", lambda plan, rep, runs: captured.append(plan) or [{}])
    run_pipeline("plain", tmp_path)
    [plan] = captured
    assert plan.variants == ()
    assert {name: getattr(plan, name) for name in plan_defaults()} == {**plan_defaults(), "repetitions": 1}


def test_default_plan_without_baselines():
    plan = default_plan(include_baselines=False)
    assert len(plan.variants) == 12
    assert all(not v.baseline for v in plan.variants)


# -------------------------------------------------------------------- sweeps


def small_plan(**kw):
    variants = (
        Variant("meta-quick", CellKey("BSML", 2, "random"), meta=QUICK_META),
        Variant("skipped", CellKey("BSML", 3, "alltask"), na=True),
        Variant("plain", CellKey("Plain", 0, ""), baseline="plain"),
    )
    base = dict(
        repetitions=2,
        fine_tune=QUICK_FT,
        hidden=6,
        n_subjects=30,
        mt_iterations=3,
    )
    base.update(kw)
    return ExperimentPlan(variants, **base)


def test_run_sweep_writes_results_and_manifest(tmp_path):
    plan = small_plan()
    table = run_sweep(plan, tmp_path)
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "results.txt").exists()
    assert ResultTable.parse((tmp_path / "results.json").read_text()) == table

    cell = table.cell("BSML", 2, "random")
    assert cell.n == 2 and cell.errors == ()
    assert 0.0 <= cell.mean <= 1.0 and cell.std >= 0.0
    assert table.cell("BSML", 3, "alltask").na
    assert table.cell("Plain", 0, "").n == 2

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seeds"] == {"data_seed": 0, "run_seed": 0}
    assert manifest["config"]["repetitions"] == 2
    assert [v["label"] for v in manifest["config"]["variants"]] == [
        "meta-quick",
        "skipped",
        "plain",
    ]


def test_run_sweep_pairs_seeds_across_variants(tmp_path):
    run_sweep(small_plan(data_seed=10, run_seed=20), tmp_path)
    for label in ("meta-quick", "plain"):
        for rep in range(2):
            doc = json.loads((tmp_path / "runs" / label / f"rep{rep}" / "result.json").read_text())
            assert doc["data_seed"] == 10 + rep
            assert doc["run_seed"] == 20 + rep


def test_run_sweep_single_repetition_has_zero_std(tmp_path):
    table = run_sweep(small_plan(repetitions=1), tmp_path)
    cell = table.cell("BSML", 2, "random")
    assert cell.n == 1 and cell.std == 0.0


def tree_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_sweep_run_dirs_equal_run_pipeline(tmp_path):
    # the sweep fine-tunes a repetition's variants in lockstep; each run
    # directory must still be byte-equal to a pipeline run on its own
    variants = (
        Variant("meta-random", CellKey("BSML", 2, "random"), meta=QUICK_META),
        Variant("meta-cl", CellKey("BSML", 2, "cl"), meta=replace(QUICK_META, sampler="cl")),
        Variant("skipped", CellKey("BSML", 3, "alltask"), na=True),
        Variant("plain", CellKey("Plain", 0, ""), baseline="plain"),
        Variant("multitask", CellKey("Multi-task", 0, ""), baseline="multitask"),
    )
    ft = FineTuneConfig(epochs=3, batch_size=3)
    plan = ExperimentPlan(
        variants,
        repetitions=2,
        data_seed=1,
        run_seed=4,
        fine_tune=ft,
        hidden=6,
        n_subjects=30,
        mt_iterations=3,
    )
    run_sweep(plan, tmp_path / "sweep")
    for v in variants:
        if v.na:
            assert not (tmp_path / "sweep" / "runs" / v.label).exists()
            continue
        for rep in range(plan.repetitions):
            alone = tmp_path / "alone" / v.label / f"rep{rep}"
            run_pipeline(
                v.meta if v.meta is not None else v.baseline,
                alone,
                data_seed=1 + rep,
                run_seed=4 + rep,
                fine_tune=ft,
                hidden=6,
                n_subjects=30,
                mt_iterations=3,
            )
            swept = tree_files(tmp_path / "sweep" / "runs" / v.label / f"rep{rep}")
            assert "checkpoint.json" in swept
            assert swept == tree_files(alone), (v.label, rep)


def test_run_sweep_meta_trains_each_stack_once_per_repetition(tmp_path, monkeypatch):
    from curmeta import harness, meta

    calls, stacks = [], []
    lockstep = meta._meta_train_lockstep

    def counting_meta_train(arch, configs, data, *args, **kwargs):
        calls.append(len(configs))
        return meta_train(arch, configs, data, *args, **kwargs)

    def counting_lockstep(arch, configs, *args):
        stacks.append([(c.sampler.value, c.gradient_mode.value, c.seed) for c in configs])
        return lockstep(arch, configs, *args)

    monkeypatch.setattr(harness, "meta_train", counting_meta_train)
    monkeypatch.setattr(meta, "_meta_train_lockstep", counting_lockstep)
    first_order = replace(QUICK_META, gradient_mode="first")
    variants = (
        Variant("second-random", CellKey("BSML", 2, "random"), meta=QUICK_META),
        Variant("first-cl", CellKey("FO", 2, "cl"), meta=replace(first_order, sampler="cl")),
        Variant("plain", CellKey("Plain", 0, ""), baseline="plain"),
        Variant("second-mab", CellKey("BSML", 2, "mab"), meta=replace(QUICK_META, sampler="mab")),
        Variant("first-random", CellKey("FO", 2, "random"), meta=first_order),
    )
    plan = ExperimentPlan(
        variants, repetitions=2, run_seed=7, fine_tune=QUICK_FT, hidden=6, n_subjects=30
    )
    table = run_sweep(plan, tmp_path)
    assert calls == [4, 4]  # one meta_train call per repetition
    assert stacks == [
        [("random", "second", 7), ("mab", "second", 7)],
        [("cl", "first", 7), ("random", "first", 7)],
        [("random", "second", 8), ("mab", "second", 8)],
        [("cl", "first", 8), ("random", "first", 8)],
    ]
    assert all(c.n == 2 and not c.errors for _, c in table.cells)


def test_run_sweep_captures_per_repetition_failures(tmp_path):
    broken = MetaConfig(meta_updates=1, sampler="alltask", meta_batch_size=2)
    variants = (
        Variant("broken", CellKey("BSML", 2, "alltask"), meta=broken),
        Variant("plain", CellKey("Plain", 0, ""), baseline="plain"),
    )
    plan = ExperimentPlan(
        variants, repetitions=2, fine_tune=QUICK_FT, hidden=6, n_subjects=30, mt_iterations=3
    )
    table = run_sweep(plan, tmp_path)
    cell = table.cell("BSML", 2, "alltask")
    assert cell.n == 0 and cell.mean is None
    assert len(cell.errors) == 2
    assert "[meta-train]" in cell.errors[0]
    assert table.cell("Plain", 0, "").n == 2  # the rest of the sweep still ran
    assert "failed" in (tmp_path / "results.txt").read_text()
    assert not (tmp_path / "runs" / "broken").exists()  # a failed run writes nothing
    assert (tmp_path / "runs" / "plain" / "rep0" / "manifest.json").is_file()


def test_run_sweep_records_an_unwritable_run_directory_and_carries_on(tmp_path):
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "plain").write_text("a file where a run directory goes\n")
    table = run_sweep(small_plan(), tmp_path)
    cell = table.cell("Plain", 0, "")
    assert cell.n == 0
    assert [e.split(" ", 2)[:2] for e in cell.errors] == [["rep0:", "[write]"], ["rep1:", "[write]"]]
    assert table.cell("BSML", 2, "random").n == 2  # the other runs were written
    assert (tmp_path / "runs" / "meta-quick" / "rep1" / "manifest.json").is_file()
    assert ResultTable.parse((tmp_path / "results.json").read_text()) == table


def test_run_sweep_records_generate_failures_for_every_variant(tmp_path):
    table = run_sweep(small_plan(n_subjects=5), tmp_path)  # fewer than 2 subjects per split
    for model, mb, sampler in (("BSML", 2, "random"), ("Plain", 0, "")):
        cell = table.cell(model, mb, sampler)
        assert cell.n == 0 and len(cell.errors) == 2
        assert all(e.startswith(f"rep{r}: [generate]") for r, e in enumerate(cell.errors))
    assert not any((tmp_path / "runs").rglob("*.tsv"))
    assert not (tmp_path / "runs").exists()


def test_run_sweep_of_only_na_variants_writes_tables_and_runs_nothing(tmp_path, monkeypatch):
    from curmeta import harness

    generated = []
    monkeypatch.setattr(harness, "generate_source", lambda *args: generated.append(args))
    variants = (
        Variant("skipped", CellKey("BSML", 3, "alltask"), na=True),
        Variant("also-skipped", CellKey("BSML", 2, "alltask"), na=True),
    )
    table = run_sweep(ExperimentPlan(variants, repetitions=2), tmp_path)
    assert [c.na for _, c in table.cells] == [True, True]
    assert ResultTable.parse((tmp_path / "results.json").read_text()) == table
    assert (tmp_path / "results.txt").read_text().count("N/A") == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["files"]) == ["results.json", "results.txt"]
    assert not (tmp_path / "runs").exists()
    assert generated == []


# -------------------------------------------------------------------- curves


@pytest.fixture(scope="module")
def curve_log():
    data = generate_source(SMALL_SOURCE, n_subjects=30)
    cfg = MetaConfig(meta_updates=6, inner_steps=2, meta_batch_size=2, sampler="cl", seed=1)
    _, log = meta_train(SMALL_ARCH, cfg, data)
    return log


def test_emit_curves_row_counts(curve_log):
    texts = emit_curves(curve_log, window=2)
    curve_lines = texts["task_curves.tsv"].splitlines()
    n_episodes = sum(len(r.tasks) for r in curve_log.records)
    assert len(curve_lines) == 1 + n_episodes
    assert curve_lines[0] == "iteration\ttask\tauc_before\tauc_after\tobservation\treward"

    hist_lines = texts["sampling_histogram.tsv"].splitlines()
    header = hist_lines[0].split("\t")
    assert header[:2] == ["window_start", "window_end"]
    task_ids = header[2:]
    # 6 iterations, window 2 -> 3 windows, each counting window * batch episodes
    assert len(hist_lines) == 1 + 3
    for line in hist_lines[1:]:
        parts = line.split("\t")
        assert sum(int(c) for c in parts[2:]) == 2 * 2
    assert task_ids == sorted(task_ids)


def test_emit_curves_alltask_histogram_uniform():
    data = generate_source(SMALL_SOURCE, n_subjects=30)
    cfg = MetaConfig(meta_updates=4, inner_steps=1, meta_batch_size=5, sampler="alltask", seed=0)
    _, log = meta_train(SMALL_ARCH, cfg, data)
    texts = emit_curves(log, window=4)
    line = texts["sampling_histogram.tsv"].splitlines()[1]
    counts = [int(c) for c in line.split("\t")[2:]]
    assert counts == [4, 4, 4, 4, 4]


def test_emit_curves_empty_log():
    texts = emit_curves(RunLog(()))
    assert texts["task_curves.tsv"].splitlines() == [
        "iteration\ttask\tauc_before\tauc_after\tobservation\treward"
    ]
    assert texts["sampling_histogram.tsv"].splitlines() == ["window_start\twindow_end"]


def test_emit_curves_rejects_bad_window(curve_log):
    with pytest.raises(ValueError):
        emit_curves(curve_log, window=0)


def test_emit_curves_round_trip_from_file(tmp_path, curve_log):
    # the on-disk log feeds the curve extractor unchanged
    log_path = tmp_path / "run_log.tsv"
    log_path.write_text(curve_log.to_tsv())
    reloaded = RunLog.from_tsv(log_path.read_text())
    texts = emit_curves(reloaded)
    assert texts["task_curves.tsv"]
    assert texts == emit_curves(curve_log)


def test_default_architecture_shape():
    arch = default_architecture(16)
    assert arch.layer_widths == (16, 24, 2)
    assert arch.activation == "relu"
    assert default_architecture(8, hidden=10).layer_widths == (8, 10, 2)
