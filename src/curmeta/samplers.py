"""Task-selection strategies filling the meta-batch each meta-update.

Four strategies share one state object:

* random   -- uniform draws with replacement
* alltask  -- every pool task exactly once (batch size must equal pool size)
* cl       -- teacher-student curriculum: per-task buffers hold recent rewards;
              one entry is drawn uniformly from each buffer and the task with
              the largest absolute drawn value wins
* mab      -- same buffer machinery, but buffers hold observations and the
              largest signed drawn value wins

Buffers are bounded queues (capacity 10, oldest evicted first).
Tasks whose buffer is still empty take selection priority in ascending pool
order, so every buffer gets primed before the draw rule kicks in.  Ties in
the argmax break toward the lowest pool index.  SamplerState is single-writer:
selection and recording mutate it and must not run concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tasks import TaskDefinition


BUFFER_CAPACITY = 10  # recent rewards/observations kept per task


class SamplerKind(str, Enum):
    RANDOM = "random"
    ALL_TASK = "alltask"
    MAB = "mab"
    CL = "cl"


class AllTaskBatchError(ValueError):
    """alltask sampling asked for a batch size different from the pool size."""


@dataclass(frozen=True)
class OutcomeRecord:
    """What one recorded adaptation contributed: its observation and reward."""

    observation: float
    reward: float


class SamplerState:
    """Per-task reward/observation buffers plus the selection RNG."""

    def __init__(self, kind, rng=0):
        self.kind = SamplerKind(kind)
        self.rng = np.random.default_rng(rng)
        self.buffers: dict[str, deque] = {}
        self.last_observation: dict[str, float] = {}

    def buffer(self, task_id: str) -> deque:
        if task_id not in self.buffers:
            self.buffers[task_id] = deque(maxlen=BUFFER_CAPACITY)
        return self.buffers[task_id]


def _select_one_buffered(state: SamplerState, task_pool, signed: bool) -> TaskDefinition:
    """cl (``signed`` False) and mab (``signed`` True) pick of one task.

    cl takes the task whose uniformly drawn recent reward has the largest
    magnitude, mab the task whose uniformly drawn recent observation is
    largest.
    """
    for task in task_pool:
        if len(state.buffer(task.id)) == 0:
            return task
    buffers = [state.buffers[task.id] for task in task_pool]
    # one call draws every buffer's index, on the stream of one scalar call per task
    picks = state.rng.integers([len(buf) for buf in buffers]).tolist()
    draws = np.array([buf[i] for buf, i in zip(buffers, picks)])
    keys = draws if signed else np.abs(draws)
    return task_pool[int(np.argmax(keys))]  # argmax takes the first max: lowest index wins ties


def select_batch(state: SamplerState, task_pool, batch_size: int) -> list[TaskDefinition]:
    """Meta-batch of ``batch_size`` tasks according to the sampler kind.

    random/cl/mab allow duplicates; alltask returns each pool task exactly
    once and rejects any other batch size.
    """
    pool = list(task_pool)
    if not pool:
        raise ValueError("task pool is empty")
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if state.kind is SamplerKind.RANDOM:
        return [pool[int(state.rng.integers(len(pool)))] for _ in range(batch_size)]
    if state.kind is SamplerKind.ALL_TASK:
        if batch_size != len(pool):
            raise AllTaskBatchError(
                f"alltask needs batch size {len(pool)} (one per pool task), got {batch_size}"
            )
        return pool
    signed = state.kind is SamplerKind.MAB
    return [_select_one_buffered(state, pool, signed) for _ in range(batch_size)]


def record_outcome(
    state: SamplerState, task: TaskDefinition, auc_before: float, auc_after: float
) -> OutcomeRecord:
    """Record one adaptation outcome for ``task`` and return its (O, R) pair.

    The observation is the raw difference auc_after - auc_before; the reward
    is the observation minus the task's previous observation (0 before the
    task was ever sampled).  cl buffers the reward, mab buffers the
    observation, random/alltask leave their buffers untouched.  The last
    observation is tracked for every kind so rewards stay well defined in run
    logs.
    """
    obs = float(auc_after) - float(auc_before)
    rew = obs - state.last_observation.get(task.id, 0.0)
    if state.kind is SamplerKind.CL:
        state.buffer(task.id).append(rew)
    elif state.kind is SamplerKind.MAB:
        state.buffer(task.id).append(obs)
    state.last_observation[task.id] = obs
    return OutcomeRecord(obs, rew)
