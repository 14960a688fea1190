"""Meta-training across tasks, fine-tuning on the target task, and inference.

The meta-update treats the current parameters as an initialization: each
sampled task adapts it with a few full-batch gradient steps on its support
set, and the initialization then descends the gradient of the summed
post-adaptation query losses.  In second-order mode that gradient is exact,
obtained by running Hessian-vector products backwards along the unrolled
adaptation trajectory; first-order mode simply evaluates the query gradient
at the adapted parameters.

Checkpoints are JSON documents carrying the architecture, the flat parameter
vector in hexadecimal float encoding (bit-exact round trip), the producing
config and the seed.  Run logs are TSV, one record per meta-update.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import nets
from .metrics import compute_auc
from .nets import Architecture, Batch, ParamVector, _trusted
from .samplers import SamplerKind, SamplerState, record_outcome, select_batch
from .tasks import (
    K5,
    PoolExhaustedError,
    SplitDataset,
    TASKS,
    TaskDefinition,
    check_types,
    map_labels,
    sample_episode,
)


class GradientMode(str, Enum):
    SECOND = "second"
    FIRST = "first"


@dataclass(frozen=True)
class MetaConfig:
    """All hyperparameters of the meta-training phase."""

    adaptation_rate: float = 0.1
    meta_rate: float = 0.001
    meta_updates: int = 3000
    inner_steps: int = 5
    n_tr: int = 4
    n_val: int = 4
    meta_batch_size: int = 5
    sampler: SamplerKind = SamplerKind.RANDOM
    gradient_mode: GradientMode = GradientMode.SECOND
    exclude_target_task: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sampler", SamplerKind(self.sampler))
        object.__setattr__(self, "gradient_mode", GradientMode(self.gradient_mode))
        check_types(
            self,
            reals=("adaptation_rate", "meta_rate"),
            integers=("meta_updates", "inner_steps", "n_tr", "n_val", "meta_batch_size", "seed"),
        )
        if self.adaptation_rate < 0 or self.meta_rate < 0:
            raise ValueError("learning rates must be >= 0")
        if self.meta_updates < 0:
            raise ValueError(f"meta_updates must be >= 0, got {self.meta_updates}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.n_tr < 2 or self.n_val < 2:
            raise ValueError("n_tr and n_val must be >= 2 (both labels per set)")
        if self.meta_batch_size < 1:
            raise ValueError(f"meta_batch_size must be >= 1, got {self.meta_batch_size}")


@dataclass(frozen=True)
class FineTuneConfig:
    """Mini-batch training of the target task with validation-AUC snapshotting."""

    learning_rate: float = 0.01
    batch_size: int = 2
    epochs: int = 200

    def __post_init__(self):
        check_types(self, reals=("learning_rate",), integers=("batch_size", "epochs"))
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass(frozen=True)
class Provenance:
    """How a model came to be: producing config, seed, and run-log content hash."""

    config: dict = field(default_factory=dict)
    seed: int = 0
    log_hash: str = ""


@dataclass(frozen=True)
class TrainedModel:
    arch: Architecture
    params: ParamVector
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        if params.shape != (self.arch.param_count,):
            raise ValueError(
                f"params shape {params.shape} does not match architecture "
                f"({self.arch.param_count} parameters)"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError("model parameters contain NaN or Inf")
        object.__setattr__(self, "params", params)


class NetLoss:
    """Cross-entropy objective of a net, exposed as loss/grad/Hessian-vector callables.

    Anything with this interface can drive the adaptation and meta-gradient
    machinery; tests use closed-form objectives the same way.  ``grad`` must
    also take params with a leading episode axis (see ``meta_gradient``).
    """

    def __init__(self, arch: Architecture):
        self.arch = arch

    def loss(self, params: ParamVector, batch: Batch) -> float:
        return nets.batch_loss(self.arch, params, batch)

    def grad(self, params: ParamVector, batch: Batch) -> ParamVector:
        return nets.grad(self.arch, params, batch)

    def hvp(self, params: ParamVector, batch: Batch, v: ParamVector) -> ParamVector:
        return nets.hessian_vector_product(self.arch, params, batch, v)


def _unroll(objective, params, support, alpha, steps):
    """Adaptation trajectory [theta_0, ..., theta_steps] on the support loss."""
    if steps < 1:
        raise ValueError(f"need at least one adaptation step, got {steps}")
    trajectory = [np.asarray(params, dtype=np.float64).copy()]
    for _ in range(steps):
        theta = trajectory[-1]
        trajectory.append(theta - alpha * objective.grad(theta, support))
    return trajectory


def inner_adapt(objective, params: ParamVector, support: Batch, alpha: float, steps: int) -> ParamVector:
    """``steps`` full-batch gradient steps on the support loss; input untouched."""
    return _unroll(objective, params, support, alpha, steps)[-1]


def _stack(batches):
    """Episode batches with a leading episode axis; other objectives get the tuple."""
    batches = tuple(batches)
    if all(isinstance(b, Batch) for b in batches):
        return Batch.stack(batches)
    return batches


def _meta_gradient(objective, params, episodes, support, query, alpha, steps, mode):
    """Meta-gradient and stacked adaptation trajectory of a meta-batch.

    ``support`` and ``query`` are the episodes' batches stacked by ``_stack``.
    The unroll and the query gradient run once for all episodes: theta has a
    leading episode axis (B, P).  The reverse sweep runs per episode, through
    theta_{k+1} = theta_k - alpha * g(theta_k): v <- (I - alpha * H(theta_k))
    v at every inner step.
    """
    mode = GradientMode(mode)
    params = np.asarray(params, dtype=np.float64)
    theta = np.repeat(params[None, :], len(episodes), axis=0)
    trajectory = _unroll(objective, theta, support, alpha, steps)
    query_grads = objective.grad(trajectory[-1], query)
    total = np.zeros_like(params)
    for b, (ep, v) in enumerate(zip(episodes, query_grads)):
        if mode is GradientMode.SECOND:
            for theta in reversed(trajectory[:-1]):
                v = v - alpha * objective.hvp(theta[b], ep.support, v)
        total += v
    return total, trajectory


def meta_gradient(
    objective,
    params: ParamVector,
    episodes,
    alpha: float,
    steps: int,
    mode: GradientMode = GradientMode.SECOND,
) -> ParamVector:
    """Gradient w.r.t. the initialization of the summed post-adaptation query losses.

    ``objective.grad`` receives params with a leading episode axis and the
    episodes' batches stacked (``Batch.stack``; objectives whose batches are
    not ``Batch`` get the tuple of them), and ``objective.hvp`` one episode
    at a time.  Per-episode gradients are accumulated in the given order.
    """
    episodes = list(episodes)
    if not episodes:
        raise ValueError("meta_gradient needs at least one episode")
    support = _stack(ep.support for ep in episodes)
    query = _stack(ep.query for ep in episodes)
    return _meta_gradient(objective, params, episodes, support, query, alpha, steps, mode)[0]


def positive_probability(arch: Architecture, params: ParamVector, inputs) -> np.ndarray:
    """Softmax probability of class 1 per sample (per episode and sample when stacked)."""
    return nets.softmax(nets.forward(arch, params, inputs))[..., 1]


def infer(model: TrainedModel, inputs) -> np.ndarray:
    """Probability of the positive class for each input row."""
    return positive_probability(model.arch, model.params, inputs)


# --- run log --------------------------------------------------------------------

LOG_COLUMNS = (
    "iteration",
    "sampler",
    "tasks",
    "auc_before",
    "auc_after",
    "observation",
    "reward",
    "grad_norm",
)


@dataclass(frozen=True)
class MetaUpdateRecord:
    """One meta-update: the sampled tasks and their per-episode outcomes."""

    iteration: int
    sampler: str
    tasks: tuple[str, ...]
    auc_before: tuple[float, ...]
    auc_after: tuple[float, ...]
    observations: tuple[float, ...]
    rewards: tuple[float, ...]
    grad_norm: float


@dataclass(frozen=True)
class RunLog:
    records: tuple[MetaUpdateRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def to_tsv(self) -> str:
        lines = ["\t".join(LOG_COLUMNS)]
        for r in self.records:
            lines.append(
                "\t".join(
                    [
                        str(r.iteration),
                        r.sampler,
                        ",".join(r.tasks),
                        ",".join(f"{x:.17g}" for x in r.auc_before),
                        ",".join(f"{x:.17g}" for x in r.auc_after),
                        ",".join(f"{x:.17g}" for x in r.observations),
                        ",".join(f"{x:.17g}" for x in r.rewards),
                        f"{r.grad_norm:.17g}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "RunLog":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != "\t".join(LOG_COLUMNS):
            raise ValueError("malformed run log: bad or missing header")
        records = []
        for ln, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != len(LOG_COLUMNS):
                raise ValueError(f"malformed run log: line {ln} has {len(parts)} fields")
            floats = lambda s: tuple(float(x) for x in s.split(",")) if s else ()
            records.append(
                MetaUpdateRecord(
                    iteration=int(parts[0]),
                    sampler=parts[1],
                    tasks=tuple(parts[2].split(",")) if parts[2] else (),
                    auc_before=floats(parts[3]),
                    auc_after=floats(parts[4]),
                    observations=floats(parts[5]),
                    rewards=floats(parts[6]),
                    grad_norm=float(parts[7]),
                )
            )
        return cls(tuple(records))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_tsv().encode()).hexdigest()


# --- meta-training --------------------------------------------------------------

def config_to_dict(config) -> dict:
    d = asdict(config)
    return {k: (v.value if isinstance(v, Enum) else v) for k, v in d.items()}


def initial_params(arch: Architecture, seed: int) -> ParamVector:
    """The initialization of run seed ``seed``: the first of its three spawned streams.

    Meta-training starts here (its episode and sampler streams are the other
    two), and so does the plain baseline, so both arms share one init.
    """
    init_ss = np.random.SeedSequence(seed).spawn(3)[0]
    return nets.init_params(arch, np.random.default_rng(init_ss))


def meta_train(
    arch: Architecture,
    config: MetaConfig,
    data: SplitDataset,
    task_pool=None,
    sampler: SamplerState | None = None,
) -> tuple[TrainedModel, RunLog]:
    """Run ``config.meta_updates`` meta-updates and return the trained initialization.

    Each iteration samples a meta-batch of tasks, draws one episode per task
    from the training split, adapts per task, meta-updates the initialization,
    and records the pre/post-adaptation query AUC of every episode with the
    sampler.  Deterministic given the config seed (the default sampler and all
    episode draws derive their streams from it).
    """
    pool = list(task_pool if task_pool is not None else TASKS)
    if config.exclude_target_task:
        pool = [t for t in pool if t.id != K5.id]
    if not pool:
        raise ValueError("task pool is empty after exclusions")

    params = initial_params(arch, config.seed)
    _, episode_ss, sampler_ss = np.random.SeedSequence(config.seed).spawn(3)
    episode_rng = np.random.default_rng(episode_ss)
    if sampler is None:
        sampler = SamplerState(config.sampler, rng=np.random.default_rng(sampler_ss))
    objective = NetLoss(arch)

    records = []
    for iteration in range(1, config.meta_updates + 1):
        batch = select_batch(sampler, pool, config.meta_batch_size)
        episodes = []
        for task in batch:
            try:
                episodes.append(
                    sample_episode(task, data.train, config.n_tr, config.n_val, episode_rng)
                )
            except PoolExhaustedError as e:
                raise PoolExhaustedError(
                    f"meta-update {iteration}, task {task.id}: {e}"
                ) from e

        query = Batch.stack(ep.query for ep in episodes)
        grad_total, trajectory = _meta_gradient(
            objective,
            params,
            episodes,
            Batch.stack(ep.support for ep in episodes),
            query,
            config.adaptation_rate,
            config.inner_steps,
            config.gradient_mode,
        )
        prob_before = positive_probability(arch, trajectory[0], query.inputs)
        prob_after = positive_probability(arch, trajectory[-1], query.inputs)
        auc_before = compute_auc(prob_before, query.labels).tolist()
        auc_after = compute_auc(prob_after, query.labels).tolist()

        params = params - config.meta_rate * grad_total
        if not np.all(np.isfinite(params)):
            raise FloatingPointError(f"non-finite parameters after meta-update {iteration}")

        observations, rewards = [], []
        for task, before, after in zip(batch, auc_before, auc_after):
            outcome = record_outcome(sampler, task, before, after)
            observations.append(outcome.observation)
            rewards.append(outcome.reward)

        records.append(
            MetaUpdateRecord(
                iteration=iteration,
                sampler=sampler.kind.value,
                tasks=tuple(t.id for t in batch),
                auc_before=tuple(auc_before),
                auc_after=tuple(auc_after),
                observations=tuple(observations),
                rewards=tuple(rewards),
                grad_norm=float(np.linalg.norm(grad_total)),
            )
        )

    log = RunLog(tuple(records))
    model = TrainedModel(
        arch, params, Provenance(config_to_dict(config), config.seed, log.content_hash())
    )
    return model, log


# --- fine-tuning and baselines --------------------------------------------------

def fine_tune(
    model: TrainedModel | Sequence[TrainedModel],
    target_task: TaskDefinition,
    data: SplitDataset,
    config: FineTuneConfig,
    rng=0,
) -> TrainedModel | list[TrainedModel | FloatingPointError]:
    """Mini-batch gradient descent on the mapped training split.

    Returns the parameter snapshot with the highest validation AUC over all
    epochs, including epoch 0 (the untouched input model), so the result is
    never worse than the start on validation.  Raises FloatingPointError if
    the parameters go non-finite.

    ``model`` may also be a sequence of models sharing one architecture.  They
    are then trained in lockstep on one mini-batch order: params with a
    leading model axis (B, P), one stacked ``nets.grad`` call per step and one
    stacked validation forward pass per epoch.  The result is a list whose
    entry b equals ``fine_tune(model[b], ...)`` on the same seed bit for bit,
    or is the ``FloatingPointError`` that call would raise; such a model
    leaves the stack and the others carry on.  One model is a stack of one.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    train = map_labels(target_task, data.train)
    val = map_labels(target_task, data.validation)
    if not isinstance(model, TrainedModel):
        return _fine_tune_lockstep(list(model), train, val, config, rng)
    [result] = _fine_tune_lockstep([model], train, val, config, rng)
    if isinstance(result, FloatingPointError):
        raise result
    return result


def _tuned(model: TrainedModel, params: ParamVector, config: FineTuneConfig) -> TrainedModel:
    provenance = Provenance(
        config={**model.provenance.config, "fine_tune": config_to_dict(config)},
        seed=model.provenance.seed,
        log_hash=model.provenance.log_hash,
    )
    return TrainedModel(model.arch, params, provenance)


def _fine_tune_lockstep(models, train, val, config, rng) -> list:
    if not models:
        raise ValueError("fine_tune needs at least one model")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise ValueError("models fine-tuned in lockstep must share one architecture")

    def val_aucs(p):
        inputs = np.broadcast_to(val.inputs, (len(p),) + val.inputs.shape)
        labels = np.broadcast_to(val.labels, (len(p),) + val.labels.shape)
        return compute_auc(positive_probability(arch, p, inputs), labels)

    rows = list(range(len(models)))  # the model behind each row of the stack
    params = np.stack([m.params for m in models])
    best_params, best_auc = params.copy(), val_aucs(params)
    results = [None] * len(models)
    n = len(train)
    for _ in range(config.epochs):
        # the epoch's shuffled split, broadcast to every row; mini-batches are slices
        order = rng.permutation(n)
        inputs = np.broadcast_to(train.inputs[order], (len(rows),) + train.inputs.shape)
        labels = np.broadcast_to(train.labels[order], (len(rows), n))
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            mini = _trusted(Batch, inputs[:, start:stop], labels[:, start:stop])
            # params - learning_rate * g, computed in g's buffer
            g = nets.grad(arch, params, mini)
            np.multiply(g, config.learning_rate, out=g)
            params = np.subtract(params, g, out=g)
        finite = np.all(np.isfinite(params), axis=1)
        if not finite.all():
            for r in np.flatnonzero(~finite):
                results[rows[r]] = FloatingPointError("non-finite parameters during fine-tuning")
            rows = [row for row, ok in zip(rows, finite) if ok]
            params, best_params, best_auc = params[finite], best_params[finite], best_auc[finite]
            if not rows:
                return results
        aucs = val_aucs(params)
        better = aucs > best_auc
        best_auc[better] = aucs[better]
        best_params[better] = params[better]
    for row, best in zip(rows, best_params):
        results[row] = _tuned(models[row], best.copy(), config)
    return results


def _head_length(arch: Architecture) -> int:
    return (arch.layer_widths[-2] + 1) * arch.layer_widths[-1]


def multitask_train(
    arch: Architecture,
    task_pool,
    data: SplitDataset,
    learning_rate: float,
    iterations: int,
    batch_size: int = 4,
    rng=0,
    target_task: TaskDefinition = K5,
) -> TrainedModel:
    """Joint training baseline: shared trunk, one output head per task.

    Every iteration samples one batch per task and descends the summed
    cross-entropy losses; the trunk accumulates all task gradients, each head
    only its own.  The returned model is trunk plus the target task's head.
    """
    pool = list(task_pool)
    if not pool:
        raise ValueError("task pool is empty")
    if target_task not in pool:
        raise ValueError(f"target task {target_task.id} not in the pool")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    head_len = _head_length(arch)
    trunk_len = arch.param_count - head_len
    first = nets.init_params(arch, rng)
    trunk = first[:trunk_len].copy()
    heads = {pool[0].id: first[trunk_len:].copy()}
    head_scale = 1.0 / np.sqrt(arch.layer_widths[-2])
    for task in pool[1:]:
        heads[task.id] = rng.uniform(-head_scale, head_scale, size=head_len)

    mapped = {task.id: map_labels(task, data.train) for task in pool}
    for _ in range(iterations):
        trunk_grad = np.zeros(trunk_len)
        for task in pool:
            full_batch = mapped[task.id]
            n = len(full_batch)
            idx = rng.choice(n, size=min(batch_size, n), replace=n < batch_size)
            mini = Batch(full_batch.inputs[idx], full_batch.labels[idx])
            g = nets.grad(arch, np.concatenate([trunk, heads[task.id]]), mini)
            trunk_grad += g[:trunk_len]
            heads[task.id] = heads[task.id] - learning_rate * g[trunk_len:]
        trunk = trunk - learning_rate * trunk_grad
        if not np.all(np.isfinite(trunk)):
            raise FloatingPointError("non-finite parameters during multi-task training")

    params = np.concatenate([trunk, heads[target_task.id]])
    return TrainedModel(arch, params, Provenance({"baseline": "multitask"}, 0, ""))


# --- checkpoints ----------------------------------------------------------------

CHECKPOINT_FORMAT = "curmeta-checkpoint-v1"


def save_checkpoint(path, model: TrainedModel) -> None:
    """Write a self-describing JSON checkpoint with bit-exact parameters."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "architecture": {
            "layer_widths": list(model.arch.layer_widths),
            "activation": model.arch.activation,
        },
        "params_hex": [float(x).hex() for x in model.params],
        "config": model.provenance.config,
        "seed": model.provenance.seed,
        "log_hash": model.provenance.log_hash,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a missing or mistyped field fails naming the field."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} document")
    required = object()

    def read(parent, label, kind, default=required):
        value = parent.get(label.rsplit(".", 1)[-1], default)
        if value is required:
            raise ValueError(f"{path}: checkpoint has no {label}")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{path}: checkpoint {label} must be {kind.__name__}, got {value!r}")
        return value

    spec = read(doc, "architecture", dict)
    widths = read(spec, "architecture.layer_widths", list)
    activation = read(spec, "architecture.activation", str)
    hexes = read(doc, "params_hex", list)
    provenance = Provenance(
        read(doc, "config", dict, {}), read(doc, "seed", int, 0), read(doc, "log_hash", str, "")
    )
    try:
        params = np.array([float.fromhex(x) for x in hexes], dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: checkpoint params_hex: {e}") from e
    try:
        return TrainedModel(Architecture(tuple(widths), activation), params, provenance)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
