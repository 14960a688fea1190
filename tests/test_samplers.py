"""Tests for the four task-selection strategies and their buffer rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curmeta.samplers import (
    BUFFER_CAPACITY,
    AllTaskBatchError,
    SamplerKind,
    SamplerState,
    record_outcome,
    select_batch,
)
from curmeta.tasks import TASKS
from oracles import ReferenceSampler

POOL = list(TASKS)


def primed_state(kind, values, rng=0):
    """SamplerState whose buffers are filled directly with the given values."""
    state = SamplerState(kind, rng=rng)
    for task_id, vals in values.items():
        buf = state.buffer(task_id)
        for v in vals:
            buf.append(v)
    return state


# --------------------------------------------------------------------- kinds


def test_sampler_kind_values():
    assert SamplerKind("random") is SamplerKind.RANDOM
    assert SamplerKind("alltask") is SamplerKind.ALL_TASK
    assert SamplerKind("mab") is SamplerKind.MAB
    assert SamplerKind("cl") is SamplerKind.CL
    with pytest.raises(ValueError):
        SamplerKind("greedy")


# ------------------------------------------------------------------- alltask


def test_alltask_emits_each_task_once():
    state = SamplerState("alltask")
    batch = select_batch(state, POOL, len(POOL))
    assert batch == POOL
    assert len(set(t.id for t in batch)) == len(POOL)


def test_alltask_rejects_other_batch_sizes():
    state = SamplerState("alltask")
    with pytest.raises(AllTaskBatchError):
        select_batch(state, POOL, 3)
    with pytest.raises(AllTaskBatchError):
        select_batch(state, POOL, 6)


def test_alltask_error_is_value_error():
    assert issubclass(AllTaskBatchError, ValueError)


# -------------------------------------------------------------------- random


def test_random_is_roughly_uniform():
    state = SamplerState("random", rng=0)
    draws = select_batch(state, POOL, 10_000)
    freqs = {t.id: 0 for t in POOL}
    for t in draws:
        freqs[t.id] += 1
    for count in freqs.values():
        assert 0.17 <= count / 10_000 <= 0.23


def test_random_deterministic_per_seed():
    a = select_batch(SamplerState("random", rng=4), POOL, 50)
    b = select_batch(SamplerState("random", rng=4), POOL, 50)
    c = select_batch(SamplerState("random", rng=5), POOL, 50)
    assert [t.id for t in a] == [t.id for t in b]
    assert [t.id for t in a] != [t.id for t in c]


def test_select_batch_validates_arguments():
    state = SamplerState("random")
    with pytest.raises(ValueError):
        select_batch(state, [], 1)
    with pytest.raises(ValueError):
        select_batch(state, POOL, 0)


# ----------------------------------------------------------------- bootstrap


def test_bootstrap_priority_in_pool_order_without_rng():
    state = SamplerState("cl", rng=0)
    before = state.rng.bit_generator.state
    picks = [select_batch(state, POOL, 1)[0] for _ in range(3)]
    # buffers all empty, so the first pool task wins every time and the RNG is untouched
    assert [t.id for t in picks] == ["K1", "K1", "K1"]
    assert state.rng.bit_generator.state == before


def test_bootstrap_skips_primed_tasks():
    state = primed_state("cl", {"K1": [0.5], "K2": [0.5]})
    before = state.rng.bit_generator.state
    assert select_batch(state, POOL, 1)[0].id == "K3"  # first task with an empty buffer
    assert state.rng.bit_generator.state == before


def test_bootstrap_mab_same_rule():
    state = primed_state("mab", {"K1": [0.1]})
    assert select_batch(state, POOL, 1)[0].id == "K2"


# --------------------------------------------------------------- selection


def test_cl_dominant_magnitude_always_wins():
    # |-0.4| beats |0.1| and |0.0| no matter which buffer entries are drawn
    values = {t.id: [0.0] for t in POOL}
    values["K1"] = [-0.4, -0.4, -0.4]
    values["K2"] = [0.1, 0.1]
    state = primed_state("cl", values, rng=0)
    for _ in range(100):
        assert select_batch(state, POOL, 1)[0].id == "K1"


def test_mab_uses_signed_values():
    # mab prefers +0.1 over -0.4: no absolute value on observations
    values = {t.id: [0.0] for t in POOL}
    values["K1"] = [-0.4, -0.4]
    values["K2"] = [0.1, 0.1]
    state = primed_state("mab", values, rng=0)
    for _ in range(100):
        assert select_batch(state, POOL, 1)[0].id == "K2"


def test_cl_uses_magnitude_of_negative_rewards():
    values = {t.id: [0.05] for t in POOL}
    values["K4"] = [-0.9]
    state = primed_state("cl", values, rng=0)
    for _ in range(50):
        assert select_batch(state, POOL, 1)[0].id == "K4"


def test_ties_break_toward_lowest_pool_index():
    values = {t.id: [0.2] for t in POOL}
    state = primed_state("cl", values, rng=0)
    assert select_batch(state, POOL, 1)[0].id == "K1"
    state = primed_state("mab", values, rng=0)
    assert select_batch(state, POOL, 1)[0].id == "K1"


def test_buffered_selection_draws_once_per_pool_task():
    # selection must consume exactly len(pool) uniform draws per pick
    values = {t.id: [0.1, 0.2, 0.3] for t in POOL}
    state = primed_state("cl", values, rng=77)
    shadow = np.random.default_rng(77)
    select_batch(state, POOL, 1)
    for _ in POOL:
        shadow.integers(3)
    assert state.rng.bit_generator.state == shadow.bit_generator.state


# ---------------------------------------------------------------- recording


def test_record_outcome_observation_and_reward():
    state = SamplerState("cl")
    assert record_outcome(state, POOL[0], 0.50, 0.80) == pytest.approx((0.30, 0.30))
    # reward subtracts the previous observation for the same task
    assert record_outcome(state, POOL[0], 0.60, 0.70) == pytest.approx((0.10, -0.20))


def test_record_outcome_is_unclamped():
    state = SamplerState("mab")
    record_outcome(state, POOL[0], 0.0, 1.0)
    assert record_outcome(state, POOL[0], 1.0, 0.0) == (-1.0, -2.0)


def test_record_outcome_buffer_routing():
    cl = SamplerState("cl")
    record_outcome(cl, POOL[0], 0.5, 0.8)
    record_outcome(cl, POOL[0], 0.8, 0.7)
    assert list(cl.buffers["K1"]) == [pytest.approx(0.3), pytest.approx(-0.4)]

    mab = SamplerState("mab")
    record_outcome(mab, POOL[0], 0.5, 0.8)
    record_outcome(mab, POOL[0], 0.8, 0.7)
    assert list(mab.buffers["K1"]) == [pytest.approx(0.3), pytest.approx(-0.1)]


def test_record_outcome_random_and_alltask_skip_buffers():
    for kind in ("random", "alltask"):
        state = SamplerState(kind)
        observation, _ = record_outcome(state, POOL[2], 0.4, 0.9)
        assert observation == pytest.approx(0.5)
        assert not state.buffers.get("K3")
        # the last observation is still tracked so rewards remain defined
        assert state.last_observation["K3"] == pytest.approx(0.5)


def test_record_outcome_tracks_tasks_independently():
    state = SamplerState("cl")
    record_outcome(state, POOL[0], 0.5, 0.9)
    _, reward = record_outcome(state, POOL[1], 0.5, 0.6)
    assert reward == pytest.approx(0.1)  # K2 has no prior observation


def test_buffer_capacity_evicts_oldest():
    state = SamplerState("mab")
    for i in range(15):
        record_outcome(state, POOL[0], 0.0, (i + 1) / 100.0)
    buf = list(state.buffers["K1"])
    assert len(buf) == 10
    assert buf[0] == pytest.approx(0.06)
    assert buf[-1] == pytest.approx(0.15)


# ------------------------------------------------------------------- replay


@pytest.mark.parametrize("kind", ["cl", "mab"])
def test_replay_matches_reference_implementation(kind):
    # identical scripted outcome sequences drive both implementations; every
    # selection, buffer and last-observation entry must agree
    master = np.random.default_rng(2024)
    for round_idx in range(250):
        seed = int(master.integers(1 << 30))
        script = np.random.default_rng(seed + 1)
        state = SamplerState(kind, rng=np.random.default_rng(seed))
        ref = ReferenceSampler(kind, np.random.default_rng(seed))
        for _ in range(40):
            picked = select_batch(state, POOL, 1)[0]
            ref_picked = ref.select_batch(POOL, 1)[0]
            assert picked.id == ref_picked.id
            before = float(script.uniform(0.0, 1.0))
            after = float(script.uniform(0.0, 1.0))
            observation, reward = record_outcome(state, picked, before, after)
            ref_obs, ref_rew = ref.record(ref_picked, before, after)
            assert observation == pytest.approx(ref_obs, abs=1e-15)
            assert reward == pytest.approx(ref_rew, abs=1e-15)
        for task in POOL:
            assert list(state.buffers.get(task.id, [])) == pytest.approx(
                ref.buffers.get(task.id, [])
            )
            assert state.last_observation.get(task.id) == ref.last.get(task.id)


def test_replay_random_matches_reference():
    seed = 31337
    state = SamplerState("random", rng=np.random.default_rng(seed))
    ref = ReferenceSampler("random", np.random.default_rng(seed))
    ours = [t.id for t in select_batch(state, POOL, 500)]
    theirs = [t.id for t in ref.select_batch(POOL, 500)]
    assert ours == theirs


# ------------------------------------------------------------ property based


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["cl", "mab"]),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 30),
)
def test_buffers_stay_bounded_and_selections_stay_in_pool(kind, seed, steps):
    rng = np.random.default_rng(seed)
    state = SamplerState(kind, rng=np.random.default_rng(seed))
    for _ in range(steps):
        picked = select_batch(state, POOL, 1)[0]
        assert picked in POOL
        before, after = rng.uniform(0, 1, size=2)
        observation, reward = record_outcome(state, picked, float(before), float(after))
        assert -1.0 <= observation <= 1.0
        assert -2.0 <= reward <= 2.0
    for buf in state.buffers.values():
        assert len(buf) <= BUFFER_CAPACITY
