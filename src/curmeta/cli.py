"""Command line entry point.

Subcommands cover the full experiment lifecycle: generate data, meta-train
an initialization, fine-tune it on a task, evaluate a checkpoint, run the
comparison sweep, and extract learning curves from a run log.  Each subcommand
is the stage of its name: a failure exits with status 1 and a single
"[stage] message" line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    DEFAULT_HIDDEN,
    ExperimentPlan,
    StageError,
    default_architecture,
    default_plan,
    run_sweep,
    stage,
    write_manifest,
)
from .meta import (
    CURVE_WINDOW,
    FineTuneConfig,
    MetaConfig,
    RunLog,
    config_to_dict,
    emit_curves,
    fine_tune,
    format_checkpoint,
    infer,
    load_checkpoint,
    meta_train,
)
from .metrics import compute_auc
from .samplers import SamplerKind
from .tasks import (
    K5,
    SPLIT_FILES,
    SourceConfig,
    TASK_BY_ID,
    derive_stream,
    format_split_dataset,
    generate_source,
    map_labels,
    read_split_dataset,
)

def _add_meta_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` and the meta-training flags, each stored under its ``MetaConfig`` field name."""
    parser.add_argument("--config", type=Path, help="JSON file of meta-training fields")
    parser.add_argument("--seed", type=int, help="meta-training seed")
    parser.add_argument("--sampler", choices=[k.value for k in SamplerKind])
    parser.add_argument("--meta-batch", type=int, dest="meta_batch_size", help="tasks per meta-update")
    parser.add_argument(
        "--no-target-task",
        action="store_const",
        const=True,
        dest="exclude_target_task",
        help="drop the target task from the meta-training pool",
    )
    parser.add_argument("--gradient-mode", choices=["first", "second"])
    parser.add_argument("--adaptation-rate", type=float)
    parser.add_argument("--meta-rate", type=float)
    parser.add_argument("--meta-updates", type=int)
    parser.add_argument("--inner-steps", type=int)
    parser.add_argument("--n-tr", type=int, help="support set size per episode")
    parser.add_argument("--n-val", type=int, help="query set size per episode")


def build_meta_config(args) -> MetaConfig:
    fields = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"{args.config}: not JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        fields.update(doc)
    for name in MetaConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    try:
        return MetaConfig(**fields)
    except TypeError as e:
        raise ValueError(f"bad config field: {e}") from e


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--data", type=Path, help="directory of existing split TSVs")
    group.add_argument("--data-seed", type=int, help="synthesize data with this seed")
    parser.add_argument("--n-subjects", type=int, default=ExperimentPlan.n_subjects)


def load_data(args):
    if args.data is not None:
        return read_split_dataset(args.data)
    seed = args.data_seed if args.data_seed is not None else SourceConfig.seed
    return generate_source(SourceConfig(seed=seed), args.n_subjects)


def input_digests(args) -> dict[str, str]:
    """sha256 of each split and checkpoint file a stage read, keyed by file name, not path."""
    paths = {name: args.data / name for name in SPLIT_FILES.values()} if args.data is not None else {}
    if getattr(args, "checkpoint", None) is not None:
        paths["checkpoint.json"] = args.checkpoint
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


def cmd_generate(args) -> int:
    data = generate_source(SourceConfig(seed=args.data_seed, dim=args.dim), args.n_subjects)
    texts = format_split_dataset(data)
    write_manifest(
        args.out,
        {SPLIT_FILES[name]: text for name, text in texts.items()},
        config={"dim": args.dim, "n_subjects": args.n_subjects},
        seeds={"data_seed": args.data_seed},
    )
    print(f"wrote {len(texts)} splits to {args.out}")
    return 0


def cmd_meta_train(args) -> int:
    config = build_meta_config(args)
    if args.hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {args.hidden}")
    data = load_data(args)
    arch = default_architecture(data.train.features.shape[1], args.hidden)
    model, log = meta_train(arch, config, data)
    write_manifest(
        args.out,
        {"checkpoint.json": format_checkpoint(model), "run_log.tsv": log.to_tsv()},
        config={**config_to_dict(config), "inputs": input_digests(args)},
        seeds={"seed": config.seed, "data_seed": args.data_seed},
    )
    print(f"meta-trained {config.meta_updates} updates, checkpoint at {args.out / 'checkpoint.json'}")
    return 0


def cmd_fine_tune(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data = load_data(args)
    task = TASK_BY_ID[args.task]
    ft = FineTuneConfig(
        learning_rate=args.learning_rate, batch_size=args.batch_size, epochs=args.epochs
    )
    tuned = fine_tune(model, task, data, ft, rng=derive_stream(args.seed, 1))
    tuned = replace(tuned, provenance=replace(tuned.provenance, seed=args.seed))
    write_manifest(
        args.out,
        {"checkpoint.json": format_checkpoint(tuned)},
        config={"task": args.task, "fine_tune": config_to_dict(ft), "inputs": input_digests(args)},
        seeds={"seed": args.seed, "data_seed": args.data_seed},
    )
    print(f"fine-tuned on {args.task}, checkpoint at {args.out / 'checkpoint.json'}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data = load_data(args)
    task = TASK_BY_ID[args.task]
    batch = map_labels(task, getattr(data, args.split))
    auc = compute_auc(infer(model, batch.inputs), batch.labels)
    result = {"task": args.task, "split": args.split, "auc": auc}
    write_manifest(
        args.out,
        {"result.json": json.dumps(result, indent=2, sort_keys=True) + "\n"},
        config={"task": args.task, "split": args.split, "inputs": input_digests(args)},
        seeds={"data_seed": args.data_seed},
    )
    print(f"{args.task} {args.split} AUC: {auc:.6f}")
    return 0


def cmd_sweep(args) -> int:
    plan = default_plan(
        meta_updates=args.meta_updates,
        include_baselines=not args.no_baselines,
        repetitions=args.repetitions,
        data_seed=args.data_seed,
        run_seed=args.run_seed,
        n_subjects=args.n_subjects,
        fine_tune=FineTuneConfig(epochs=args.ft_epochs),
    )
    print(run_sweep(plan, args.out).render_text(), end="")
    return 0


def cmd_curves(args) -> int:
    try:
        log = RunLog.from_tsv(Path(args.log).read_text())
    except ValueError as e:
        raise ValueError(f"{args.log}: {e}") from e
    write_manifest(args.out, emit_curves(log, args.window), config={"window": args.window})
    print(f"wrote curves for {len(log.records)} meta-updates to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curmeta",
        description="curriculum and bandit task sampling for meta-learned initializations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize the subject-split source data")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--data-seed", type=int, default=SourceConfig.seed)
    p.add_argument("--n-subjects", type=int, default=ExperimentPlan.n_subjects)
    p.add_argument("--dim", type=int, default=SourceConfig.dim)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("meta-train", help="train an initialization across the task pool")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    _add_meta_flags(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("fine-tune", help="adapt a checkpoint to one task")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--task", choices=sorted(TASK_BY_ID), default=K5.id)
    p.add_argument("--learning-rate", type=float, default=FineTuneConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=FineTuneConfig.batch_size)
    p.add_argument("--epochs", type=int, default=FineTuneConfig.epochs)
    p.add_argument("--seed", type=int, default=ExperimentPlan.run_seed, help="fine-tuning run seed")
    _add_data_flags(p)
    p.set_defaults(func=cmd_fine_tune)

    p = sub.add_parser("evaluate", help="score a checkpoint on a data split")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--task", choices=sorted(TASK_BY_ID), default=K5.id)
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    _add_data_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the full sampler/baseline comparison grid")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--meta-updates", type=int, default=MetaConfig.meta_updates)
    p.add_argument("--repetitions", type=int, default=ExperimentPlan.repetitions)
    p.add_argument("--data-seed", type=int, default=ExperimentPlan.data_seed)
    p.add_argument("--run-seed", type=int, default=ExperimentPlan.run_seed)
    p.add_argument("--n-subjects", type=int, default=ExperimentPlan.n_subjects)
    p.add_argument("--ft-epochs", type=int, default=FineTuneConfig.epochs, help="fine-tune epochs per run")
    p.add_argument("--no-baselines", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("curves", help="extract per-task curves from a run log")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--window", type=int, default=CURVE_WINDOW)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with stage(args.command):
            return args.func(args)
    except StageError as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
