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
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import nets
from .metrics import compute_auc
from .nets import Architecture, Batch, ParamVector
from .samplers import SamplerKind, SamplerState, record_outcome, select_batch
from .tasks import (
    K5,
    PoolExhaustedError,
    SplitDataset,
    TASKS,
    TaskDefinition,
    _cell,
    check_fields,
    derive_stream,
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
        check_fields(
            self,
            reals={"adaptation_rate": 0, "meta_rate": 0},
            integers={
                "meta_updates": 0,
                "inner_steps": 1,
                "n_tr": 2,  # both labels in every support and query set
                "n_val": 2,
                "meta_batch_size": 1,
                "seed": 0,
            },
        )


@dataclass(frozen=True)
class FineTuneConfig:
    """Mini-batch training of the target task with validation-AUC snapshotting."""

    learning_rate: float = 0.01
    batch_size: int = 2
    epochs: int = 200

    def __post_init__(self):
        check_fields(self, reals={"learning_rate": None}, integers={"batch_size": 1, "epochs": 0})
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")


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
    """Cross-entropy objective of a net, in the traced form the meta machinery runs on.

    ``trace`` runs the forward pass at params with or without a leading
    episode axis (see ``meta_gradient``); ``grad`` is the backward pass over
    a trace and returns a fresh array, which the adaptation steps overwrite;
    ``hvp(trace, b, v)`` is the Hessian-vector product at episode b of a
    stacked trace, with no forward pass of its own.  Any other object with
    ``grad(params, batch)`` and ``hvp(params, batch, v)`` drives the same
    machinery through ``_Untraced``, as the tests' closed-form objectives do.
    """

    def __init__(self, arch: Architecture):
        self.arch = arch

    def trace(self, params: ParamVector, batch: Batch) -> nets.Trace:
        return nets.trace(self.arch, params, batch)

    def grad(self, trace: nets.Trace) -> ParamVector:
        return nets.backward(trace)

    def hvp(self, trace: nets.Trace, b: int, v: ParamVector) -> ParamVector:
        return nets.hessian_vector_product(trace.row(b), v)


class _Untraced:
    """A ``grad(params, batch)`` / ``hvp(params, batch, v)`` objective in ``NetLoss``'s
    traced form: its trace is the (params, batch) pair it was taken at."""

    def __init__(self, objective):
        self.objective = objective

    def trace(self, params, batch):
        return params, batch

    def grad(self, trace):
        return self.objective.grad(*trace)

    def hvp(self, trace, b, v):
        params, batch = trace
        return self.objective.hvp(params[b], batch[b], v)


def _traced(objective):
    return objective if isinstance(objective, NetLoss) else _Untraced(objective)


def _buffer(steps, shape):
    """Trajectory buffer for ``_unroll``: one theta of ``shape`` per adaptation step."""
    if steps < 1:
        raise ValueError(f"need at least one adaptation step, got {steps}")
    return np.empty((steps,) + shape)


def _unroll(objective, theta, trajectory, support, alpha):
    """Adapt ``theta`` (theta_0) on the support loss: trajectory[k] becomes theta_{k+1}.

    Returns the trace of every step, at theta_0, ..., theta_{K-1}.  theta_0
    stays where it is, outside the buffer, so the trace of step 0 keeps
    views of it.  theta_{k+1} = theta_k - alpha * g(theta_k) is computed in
    the buffer of the gradient ``objective.grad`` returns, which must be a
    fresh array.
    """
    traces = []
    for k in range(len(trajectory)):
        traces.append(objective.trace(theta, support))
        g = objective.grad(traces[-1])
        np.multiply(g, alpha, out=g)
        theta = np.subtract(theta, g, out=trajectory[k])
        del g  # freed before the next gradient is computed
    return traces


def inner_adapt(objective, params: ParamVector, support: Batch, alpha: float, steps: int) -> ParamVector:
    """``steps`` full-batch gradient steps on the support loss; input untouched."""
    params = np.asarray(params, dtype=np.float64)
    trajectory = _buffer(steps, params.shape)
    _unroll(_traced(objective), params, trajectory, support, alpha)
    return trajectory[-1]


def _meta_gradients(objective, params, counts, trajectory, support, query, alpha, mode):
    """Meta-gradient of each group of consecutive episodes, one row per group.

    Group g starts from ``params[g]`` and owns the next ``counts[g]``
    episodes; ``support`` and ``query`` hold the episodes' batches (stacked
    for a ``NetLoss``, a tuple otherwise) and ``objective`` is in traced form
    (``_traced``).  The unroll (into ``trajectory``, a ``_buffer`` with one
    row per episode) and the query gradient run once for all episodes, and
    trajectory[-1] ends up holding the adapted params.  The reverse sweep
    runs per episode, through theta_{k+1} = theta_k - alpha * g(theta_k):
    v <- (I - alpha * H(theta_k)) v at every inner step, on the unroll's own
    trace of that step.  Each group sums its episodes' gradients in order.
    Returns the sums and the query trace.
    """
    mode = GradientMode(mode)
    group = np.repeat(np.arange(len(counts)), counts)
    traces = _unroll(objective, params[group], trajectory, support, alpha)
    query_trace = objective.trace(trajectory[-1], query)
    totals = np.zeros(params.shape)
    for b, v in enumerate(objective.grad(query_trace)):
        if mode is GradientMode.SECOND:
            for trace in reversed(traces):  # theta_{K-1}, ..., theta_0
                v = v - alpha * objective.hvp(trace, b, v)
        totals[group[b]] += v
    return totals, query_trace


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
    episodes' batches, stacked (``Batch.stack``) for a ``NetLoss`` and as a
    tuple for a closed-form objective, and ``objective.hvp`` one episode at
    a time.  Per-episode gradients are accumulated in the given order.
    """
    episodes = list(episodes)
    if not episodes:
        raise ValueError("meta_gradient needs at least one episode")
    stack = Batch.stack if isinstance(objective, NetLoss) else tuple
    support = stack(ep.support for ep in episodes)
    query = stack(ep.query for ep in episodes)
    params = np.asarray(params, dtype=np.float64)
    trajectory = _buffer(steps, (len(episodes),) + params.shape)
    totals, _ = _meta_gradients(
        _traced(objective), params[None, :], [len(episodes)], trajectory, support, query, alpha, mode
    )
    return totals[0]


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
        """Parse ``to_tsv`` output; a bad cell fails as ``line N: <column> must be ...``,
        and so does an iteration out of the order 1, 2, 3, ... or a ragged row."""
        lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line]
        if not lines or lines[0][1] != "\t".join(LOG_COLUMNS):
            raise ValueError("malformed run log: bad or missing header")

        def floats(s):
            return tuple(float(x) for x in s.split(",")) if s else ()

        def cell(parts, i, parse, expected):
            return _cell(parts[i], LOG_COLUMNS[i], parse, lambda _: True, expected)

        records = []
        for ln, line in lines[1:]:
            parts = line.split("\t")
            if len(parts) != len(LOG_COLUMNS):
                raise ValueError(f"malformed run log: line {ln} has {len(parts)} fields")
            try:
                iteration = cell(parts, 0, int, "an integer")
                if iteration != len(records) + 1:
                    raise ValueError(f"iteration must be {len(records) + 1}, got {iteration}")
                tasks = tuple(parts[2].split(",")) if parts[2] else ()
                per_task = [cell(parts, i, floats, "comma-separated numbers") for i in range(3, 7)]
                for column, v in zip(LOG_COLUMNS[3:7], per_task):
                    if len(v) != len(tasks):
                        raise ValueError(f"{column} must hold one value per task ({len(tasks)}), got {len(v)}")
                grad_norm = cell(parts, 7, float, "a number")
            except ValueError as e:
                raise ValueError(f"malformed run log: line {ln}: {e}") from None
            records.append(MetaUpdateRecord(iteration, parts[1], tasks, *per_task, grad_norm))
        return cls(tuple(records))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_tsv().encode()).hexdigest()


CURVE_WINDOW = 100  # meta-updates per sampling-histogram row


def emit_curves(log: RunLog, window: int = CURVE_WINDOW) -> dict[str, str]:
    """Per-task observation curves and a selection histogram of a run log, as texts.

    task_curves.tsv has one row per sampled episode (iteration, task, AUC
    before and after adaptation, observation, reward).  sampling_histogram.tsv
    counts each task's picks per window: a slice of the records, which run 1, 2, ...
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    curves = ["iteration\ttask\tauc_before\tauc_after\tobservation\treward"]
    for r in log.records:
        for task, *values in zip(r.tasks, r.auc_before, r.auc_after, r.observations, r.rewards):
            curves.append("\t".join([str(r.iteration), task, *(f"{x:.17g}" for x in values)]))

    task_ids = sorted({t for r in log.records for t in r.tasks})
    hist = ["\t".join(["window_start", "window_end", *task_ids])]
    for start in range(0, len(log.records), window):
        records = log.records[start : start + window]
        counts = Counter(t for r in records for t in r.tasks)
        hist.append(f"{start + 1}\t{start + len(records)}\t" + "\t".join(str(counts[t]) for t in task_ids))
    return {"task_curves.tsv": "\n".join(curves) + "\n", "sampling_histogram.tsv": "\n".join(hist) + "\n"}


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


# the fields every config of one lockstep stack shares
STACK_FIELDS = ("n_tr", "n_val", "inner_steps", "adaptation_rate", "gradient_mode", "meta_updates")


def meta_train(
    arch: Architecture,
    config: MetaConfig | Sequence[MetaConfig],
    data: SplitDataset,
    task_pool=None,
    sampler: SamplerState | Sequence[SamplerState | None] | None = None,
) -> tuple[TrainedModel, RunLog] | list:
    """Run ``config.meta_updates`` meta-updates and return the trained initialization.

    Each iteration samples a meta-batch of tasks, draws one episode per task
    from the training split, adapts per task, meta-updates the initialization,
    and records the pre/post-adaptation query AUC of every episode with the
    sampler.  Deterministic given the config seed (the default sampler and all
    episode draws derive their streams from it).  A caller's ``sampler`` must
    be of the config's sampler kind.

    ``config`` may also be a sequence of configs, checked whole before any
    training, with ``sampler`` then None or one entry per config.  Configs that
    share every ``STACK_FIELDS`` value are meta-trained in lockstep, one stack
    at a time in order of first appearance: each config selects and draws on
    its own streams, and the unroll, the query gradient and the AUCs run once
    per update for the whole stack.  The result is a list whose entry i equals
    ``meta_train(arch, config[i], ...)`` bit for bit, or is the exception that
    call would raise (a failure of a whole stack is each member's); the other
    configs carry on.  One config is a sequence of one.
    """
    if isinstance(config, MetaConfig):
        [result] = meta_train(arch, [config], data, task_pool, [sampler])
        if isinstance(result, Exception):
            raise result
        return result
    configs = list(config)
    samplers = [None] * len(configs) if sampler is None else list(sampler)
    if not configs:
        raise ValueError("meta_train needs at least one config")
    if len(samplers) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(samplers)} samplers")
    for c, state in zip(configs, samplers):
        if state is not None and state.kind is not c.sampler:
            raise ValueError(
                f"config sampler {c.sampler.value} but sampler state {state.kind.value}"
            )
    stacks = {}  # STACK_FIELDS values -> the indices of their configs
    for i, c in enumerate(configs):
        stacks.setdefault(tuple(getattr(c, name) for name in STACK_FIELDS), []).append(i)
    results = [None] * len(configs)
    for members in stacks.values():
        try:
            outcomes = _meta_train_lockstep(
                arch, [configs[i] for i in members], data, task_pool, [samplers[i] for i in members]
            )
        except Exception as e:  # a failure of the whole stack is every member's failure
            outcomes = [e] * len(members)
        for i, outcome in zip(members, outcomes):
            results[i] = outcome
    return results


class _Learner:
    """One config of a lockstep meta-train: its pool, streams, sampler and records."""

    def __init__(self, config, pool, sampler):
        self.config = config
        self.pool = pool
        _, episode_ss, sampler_ss = np.random.SeedSequence(config.seed).spawn(3)
        self.episode_rng = np.random.default_rng(episode_ss)
        if sampler is None:
            sampler = SamplerState(config.sampler, rng=np.random.default_rng(sampler_ss))
        self.sampler = sampler
        self.batch = []
        self.records = []

    def draw(self, iteration, train) -> list:
        """Select this update's meta-batch and draw one episode per task."""
        config = self.config
        self.batch = select_batch(self.sampler, self.pool, config.meta_batch_size)
        episodes = []
        for task in self.batch:
            try:
                episodes.append(
                    sample_episode(task, train, config.n_tr, config.n_val, self.episode_rng)
                )
            except PoolExhaustedError as e:
                raise PoolExhaustedError(f"meta-update {iteration}, task {task.id}: {e}") from e
        return episodes

    def record(self, iteration, auc_before, auc_after, grad_norm) -> None:
        """Record the update's outcomes with the sampler and in the run log."""
        outcomes = [
            record_outcome(self.sampler, task, before, after)
            for task, before, after in zip(self.batch, auc_before, auc_after)
        ]
        self.records.append(
            MetaUpdateRecord(
                iteration=iteration,
                sampler=self.sampler.kind.value,
                tasks=tuple(t.id for t in self.batch),
                auc_before=tuple(auc_before),
                auc_after=tuple(auc_after),
                observations=tuple(o.observation for o in outcomes),
                rewards=tuple(o.reward for o in outcomes),
                grad_norm=grad_norm,
            )
        )


def _meta_train_lockstep(arch, configs, data, task_pool, samplers) -> list:
    """One stack of ``meta_train``: checked configs that share every ``STACK_FIELDS`` value."""
    base_pool = list(task_pool if task_pool is not None else TASKS)
    results = [None] * len(configs)
    learners = [None] * len(configs)
    for i, (config, sampler) in enumerate(zip(configs, samplers)):
        pool = [t for t in base_pool if t.id != K5.id] if config.exclude_target_task else base_pool
        if pool:
            learners[i] = _Learner(config, pool, sampler)
        else:
            results[i] = ValueError("task pool is empty after exclusions")
    rows = [i for i, learner in enumerate(learners) if learner is not None]
    if not rows:
        return results

    first = configs[0]
    alpha, mode = first.adaptation_rate, first.gradient_mode
    objective = NetLoss(arch)
    params = np.stack([initial_params(arch, configs[i].seed) for i in rows])  # one row per config
    rates = np.array([configs[i].meta_rate for i in rows])
    trajectory = None  # reused while the stack keeps its episode count
    for iteration in range(1, first.meta_updates + 1):
        episodes, counts, failed = [], [], {}
        for r, i in enumerate(rows):
            try:
                drawn = learners[i].draw(iteration, data.train)
            except Exception as e:  # this config's own failure
                failed[r] = e
                continue
            episodes += drawn
            counts.append(len(drawn))
        if failed:
            rows, params, rates = _leave_stack(results, rows, failed, params, rates)
            if not rows:
                return results

        if trajectory is None or trajectory.shape[1] != len(episodes):
            trajectory = _buffer(first.inner_steps, (len(episodes), arch.param_count))
        query = Batch.stack(ep.query for ep in episodes)
        support = Batch.stack(ep.support for ep in episodes)
        del episodes  # the stacks hold copies of their arrays
        # each config's params repeated over its episodes' rows
        prob_before = positive_probability(arch, np.repeat(params, counts, axis=0), query.inputs)
        totals, query_trace = _meta_gradients(
            objective, params, counts, trajectory, support, query, alpha, mode
        )
        prob_after = query_trace.probs[..., 1]  # the adapted params' class-1 softmax
        auc_before = compute_auc(prob_before, query.labels).tolist()
        auc_after = compute_auc(prob_after, query.labels).tolist()
        norms = [float(np.linalg.norm(total)) for total in totals]

        np.multiply(totals, rates[:, None], out=totals)
        params = np.subtract(params, totals, out=totals)
        finite = np.all(np.isfinite(params), axis=1)
        stop = 0
        for r, (i, count) in enumerate(zip(rows, counts)):
            start, stop = stop, stop + count
            if finite[r]:
                learners[i].record(
                    iteration, auc_before[start:stop], auc_after[start:stop], norms[r]
                )
        if not finite.all():
            failed = {
                r: FloatingPointError(f"non-finite parameters after meta-update {iteration}")
                for r in np.flatnonzero(~finite)
            }
            rows, params, rates = _leave_stack(results, rows, failed, params, rates)
            if not rows:
                return results

    for i, row_params in zip(rows, params):
        config, log = configs[i], RunLog(tuple(learners[i].records))
        provenance = Provenance(config_to_dict(config), config.seed, log.content_hash())
        results[i] = (TrainedModel(arch, row_params.copy(), provenance), log)
    return results


def _leave_stack(results, rows, failed, *stacked):
    """Take failed rows out of a lockstep stack.

    Stack row r trains entry ``rows[r]`` of ``results``; ``failed`` maps row
    positions to their errors, which become those entries.  Returns the
    remaining rows and each stacked array without the failed rows.
    """
    keep = np.ones(len(rows), dtype=bool)
    keep[list(failed)] = False
    for r, error in failed.items():
        results[rows[r]] = error
    return ([row for row, ok in zip(rows, keep) if ok], *(a[keep] for a in stacked))


# --- fine-tuning and baselines --------------------------------------------------

def fine_tune(
    model: TrainedModel | Sequence[TrainedModel],
    target_task: TaskDefinition,
    data: SplitDataset,
    config: FineTuneConfig,
    rng=0,
) -> TrainedModel | list[TrainedModel | Exception]:
    """Mini-batch gradient descent on the mapped training split.

    Returns the parameter snapshot with the highest validation AUC over all
    epochs, including epoch 0 (the untouched input model), so the result is
    never worse than the start on validation.  Raises FloatingPointError if
    the parameters go non-finite.

    ``model`` may also be a sequence of models sharing one architecture.  They
    are then trained in lockstep on one mini-batch order: params with a
    leading model axis (B, P) and one stacked validation forward pass per
    epoch.  The layer views of the params and of one gradient buffer are
    bound once (again when a model leaves the stack), so each step runs only
    the stacked forward and backward passes (``nets._trace`` and
    ``nets._backward``) and an in-place update.  The result is a list whose
    entry b equals ``fine_tune(model[b], ...)`` on the same seed bit for bit,
    or is the exception that call would raise: a failure of the whole call
    (a one-class validation split) is every model's, and a model whose params
    go non-finite leaves the stack.  One model is a stack of one.
    """
    models = [model] if isinstance(model, TrainedModel) else list(model)
    if not models:
        raise ValueError("fine_tune needs at least one model")
    if any(m.arch != models[0].arch for m in models):
        raise ValueError("models fine-tuned in lockstep must share one architecture")
    rng = np.random.default_rng(rng)
    try:
        train = map_labels(target_task, data.train)
        val = map_labels(target_task, data.validation)
        results = _fine_tune_lockstep(models, train, val, config, rng)
    except Exception as e:  # a failure of the whole call is every model's failure
        results = [e] * len(models)
    if not isinstance(model, TrainedModel):
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _tuned(model: TrainedModel, params: ParamVector, config: FineTuneConfig) -> TrainedModel:
    provenance = Provenance(
        config={**model.provenance.config, "fine_tune": config_to_dict(config)},
        seed=model.provenance.seed,
        log_hash=model.provenance.log_hash,
    )
    return TrainedModel(model.arch, params, provenance)


def _fine_tune_lockstep(models, train, val, config, rng) -> list:
    arch = models[0].arch

    def val_aucs(p):
        inputs = np.broadcast_to(val.inputs, (len(p),) + val.inputs.shape)
        labels = np.broadcast_to(val.labels, (len(p),) + val.labels.shape)
        return compute_auc(positive_probability(arch, p, inputs), labels)

    rows = list(range(len(models)))  # the model behind each row of the stack
    params = np.stack([m.params for m in models])
    best_params, best_auc = params.copy(), val_aucs(params)
    results = [None] * len(models)
    onehot = nets._onehot(train.labels, arch.output_dim)
    n = len(train)

    def bind(p):
        """Layer views of the stacked params ``p``, and a gradient buffer with its views."""
        g = np.empty_like(p)
        return nets._unpack(arch, p), g, nets._unpack(arch, g)

    layers, g, grads = bind(params)
    for _ in range(config.epochs):
        # the epoch's shuffled split, broadcast to every row; mini-batches are slices
        order = rng.permutation(n)
        inputs = np.broadcast_to(train.inputs[order], (len(rows),) + train.inputs.shape)
        targets = np.broadcast_to(onehot[order], (len(rows),) + onehot.shape)
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            tr = nets._trace(arch, layers, inputs[:, start:stop], targets[:, start:stop])
            nets._backward(tr, grads)
            # params -= learning_rate * g, in place: the bound views follow
            np.multiply(g, config.learning_rate, out=g)
            np.subtract(params, g, out=params)
        finite = np.all(np.isfinite(params), axis=1)
        if not finite.all():
            failed = {
                r: FloatingPointError("non-finite parameters during fine-tuning")
                for r in np.flatnonzero(~finite)
            }
            rows, params, best_params, best_auc = _leave_stack(
                results, rows, failed, params, best_params, best_auc
            )
            if not rows:
                return results
            layers, g, grads = bind(params)  # _leave_stack returned copies
        aucs = val_aucs(params)
        better = aucs > best_auc
        best_auc[better] = aucs[better]
        best_params[better] = params[better]
    for row, best in zip(rows, best_params):
        results[row] = _tuned(models[row], best.copy(), config)
    return results


def _head_length(arch: Architecture) -> int:
    return (arch.layer_widths[-2] + 1) * arch.layer_widths[-1]


MULTITASK_BATCH = 4  # samples per task per multi-task iteration


def multitask_train(
    arch: Architecture,
    task_pool,
    data: SplitDataset,
    learning_rate: float,
    iterations: int,
    seed: int = 0,
) -> TrainedModel:
    """Joint training baseline: shared trunk, one output head per task.

    Every iteration samples ``MULTITASK_BATCH`` samples per task and descends
    the summed cross-entropy losses; the trunk accumulates all task gradients,
    each head only its own.  The returned model is trunk plus K5's head; it
    draws on ``derive_stream(seed, 2)`` and its provenance records ``seed``.
    """
    pool = list(task_pool)
    if not pool:
        raise ValueError("task pool is empty")
    if K5 not in pool:
        raise ValueError(f"target task {K5.id} not in the pool")
    rng = derive_stream(seed, 2)

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
            idx = rng.choice(n, size=min(MULTITASK_BATCH, n), replace=n < MULTITASK_BATCH)
            mini = Batch(full_batch.inputs[idx], full_batch.labels[idx])
            g = nets.grad(arch, np.concatenate([trunk, heads[task.id]]), mini)
            trunk_grad += g[:trunk_len]
            heads[task.id] = heads[task.id] - learning_rate * g[trunk_len:]
        trunk = trunk - learning_rate * trunk_grad
        if not np.all(np.isfinite(trunk)):
            raise FloatingPointError("non-finite parameters during multi-task training")

    params = np.concatenate([trunk, heads[K5.id]])
    return TrainedModel(arch, params, Provenance({"baseline": "multitask"}, seed))


# --- checkpoints ----------------------------------------------------------------

CHECKPOINT_FORMAT = "curmeta-checkpoint-v1"


def format_checkpoint(model: TrainedModel) -> str:
    """A self-describing JSON checkpoint with bit-exact parameters."""
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_checkpoint(path, model: TrainedModel) -> None:
    """Write ``format_checkpoint(model)`` to ``path``."""
    Path(path).write_text(format_checkpoint(model))


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a missing or mistyped field fails naming the field."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not JSON: {e}") from e
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
