"""Tests for adaptation, meta-gradients, meta-training, baselines and checkpoints."""

import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from curmeta import meta
from curmeta.meta import (
    LOG_COLUMNS,
    MULTITASK_BATCH,
    MULTITASK_RATE,
    STACK_FIELDS,
    FineTuneConfig,
    GradientMode,
    MetaConfig,
    MetaUpdateRecord,
    NetLoss,
    Provenance,
    RunLog,
    TrainedModel,
    config_to_dict,
    fine_tune,
    infer,
    initial_params,
    inner_adapt,
    load_checkpoint,
    meta_gradient,
    meta_train,
    multitask_train,
    positive_probability,
    save_checkpoint,
)
from curmeta.metrics import DegenerateAucError
from curmeta.nets import Architecture, Batch, batch_loss, forward, grad, init_params, softmax
from curmeta.tasks import (
    K5,
    TASKS,
    PoolExhaustedError,
    Samples,
    SourceConfig,
    SplitDataset,
    derive_stream,
    generate_source,
    map_labels,
)
from oracles import central_fd, max_rel_error, reference_fine_tune, reference_meta_train


class Quadratic:
    """Closed-form objective: loss = 0.5 ||theta||^2, so grad = theta and H = I."""

    def loss(self, params, batch):
        params = np.asarray(params, dtype=np.float64)
        return 0.5 * float(params @ params)

    def grad(self, params, batch):
        return np.asarray(params, dtype=np.float64).copy()

    def hvp(self, params, batch, v):
        return np.asarray(v, dtype=np.float64).copy()


def fake_episode():
    return SimpleNamespace(support="s", query="q")


@pytest.fixture(scope="module")
def small_data():
    return generate_source(SourceConfig(dim=4, seed=3), n_subjects=30)


@pytest.fixture(scope="module")
def small_arch():
    return Architecture((4, 8, 2))


# ------------------------------------------------------------------- configs


def test_meta_config_defaults():
    cfg = MetaConfig()
    assert cfg.adaptation_rate == 0.1
    assert cfg.meta_rate == 0.001
    assert cfg.meta_updates == 3000
    assert cfg.inner_steps == 5
    assert cfg.n_tr == 4 and cfg.n_val == 4
    assert cfg.sampler.value == "random"
    assert cfg.gradient_mode is GradientMode.SECOND
    assert cfg.exclude_target_task is False


def test_meta_config_coerces_enum_strings():
    cfg = MetaConfig(sampler="cl", gradient_mode="first")
    assert cfg.sampler.value == "cl"
    assert cfg.gradient_mode is GradientMode.FIRST


def test_meta_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(adaptation_rate=-0.1)
    with pytest.raises(ValueError):
        MetaConfig(meta_updates=-1)
    with pytest.raises(ValueError):
        MetaConfig(inner_steps=0)
    with pytest.raises(ValueError):
        MetaConfig(n_tr=1)
    with pytest.raises(ValueError):
        MetaConfig(meta_batch_size=0)
    with pytest.raises(ValueError):
        MetaConfig(sampler="greedy")
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        MetaConfig(seed=-1)
    for name, value, expected in [
        ("exclude_target_task", "false", "exclude_target_task must be a bool, got 'false'"),
        ("exclude_target_task", 1, "exclude_target_task must be a bool, got 1"),
        ("sampler", "bogus", "sampler must be one of random, alltask, mab, cl, got 'bogus'"),
        ("gradient_mode", "bogus", "gradient_mode must be one of second, first, got 'bogus'"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
            MetaConfig(**{name: value})


def test_fine_tune_config_validation():
    cfg = FineTuneConfig()
    assert cfg.learning_rate == 0.01 and cfg.batch_size == 2 and cfg.epochs == 200
    with pytest.raises(ValueError):
        FineTuneConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        FineTuneConfig(batch_size=0)
    with pytest.raises(ValueError):
        FineTuneConfig(epochs=-1)


@pytest.mark.parametrize(
    "make, name, value",
    [
        (MetaConfig, "adaptation_rate", float("nan")),
        (MetaConfig, "meta_rate", float("inf")),
        (MetaConfig, "adaptation_rate", True),
        (MetaConfig, "meta_updates", 3.5),
        (MetaConfig, "meta_updates", True),
        (MetaConfig, "meta_batch_size", 2.0),
        (MetaConfig, "inner_steps", "5"),
        (MetaConfig, "seed", 1.0),
        (FineTuneConfig, "learning_rate", float("nan")),
        (FineTuneConfig, "learning_rate", float("inf")),
        (FineTuneConfig, "epochs", 2.5),
        (FineTuneConfig, "batch_size", True),
    ],
)
def test_configs_reject_non_finite_rates_and_non_int_counts(make, name, value):
    with pytest.raises(ValueError, match=name):
        make(**{name: value})


def test_configs_accept_integer_rates():
    assert MetaConfig(adaptation_rate=0, meta_rate=1).meta_rate == 1
    assert FineTuneConfig(learning_rate=1).learning_rate == 1


def test_config_to_dict_flattens_enums():
    d = config_to_dict(MetaConfig(sampler="mab"))
    assert d["sampler"] == "mab"
    assert d["gradient_mode"] == "second"
    assert d["meta_updates"] == 3000


def test_trained_model_validation(small_arch):
    with pytest.raises(ValueError):
        TrainedModel(small_arch, np.zeros(small_arch.param_count - 1))
    bad = np.zeros(small_arch.param_count)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        TrainedModel(small_arch, bad)


# ------------------------------------------------------- closed-form algebra


def test_inner_adapt_quadratic_five_steps():
    # theta <- (1 - alpha) theta per step: (1,1) -> 0.9^5 (1,1)
    theta = inner_adapt(Quadratic(), np.array([1.0, 1.0]), "s", alpha=0.1, steps=5)
    assert np.max(np.abs(theta - 0.9**5)) < 1e-12
    assert theta[0] == pytest.approx(0.59049, abs=1e-12)


def test_inner_adapt_single_step_is_one_gradient_step(small_arch, small_data, rng):
    params = init_params(small_arch, rng)
    batch = map_labels(K5, small_data.train[:8])
    obj = NetLoss(small_arch)
    adapted = inner_adapt(obj, params, batch, alpha=0.05, steps=1)
    assert np.allclose(adapted, params - 0.05 * grad(small_arch, params, batch), atol=0)


def test_inner_adapt_leaves_input_untouched():
    theta = np.array([1.0, 2.0])
    inner_adapt(Quadratic(), theta, "s", alpha=0.1, steps=3)
    assert np.array_equal(theta, [1.0, 2.0])


def test_inner_adapt_rejects_zero_steps():
    with pytest.raises(ValueError):
        inner_adapt(Quadratic(), np.array([1.0]), "s", alpha=0.1, steps=0)


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_meta_gradient_quadratic_second_order(steps):
    # adapted = (1-a)^s theta, query grad = adapted, backprop multiplies (1-a)^s again
    theta = np.array([1.0, -2.0, 0.5])
    g = meta_gradient(Quadratic(), theta, [fake_episode()], alpha=0.1, steps=steps)
    assert np.max(np.abs(g - 0.9 ** (2 * steps) * theta)) < 1e-12


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_meta_gradient_quadratic_first_order(steps):
    theta = np.array([1.0, -2.0, 0.5])
    g = meta_gradient(
        Quadratic(), theta, [fake_episode()], alpha=0.1, steps=steps, mode=GradientMode.FIRST
    )
    assert np.max(np.abs(g - 0.9**steps * theta)) < 1e-12


def test_meta_gradient_additive_over_episodes():
    theta = np.array([0.3, 0.7])
    one = meta_gradient(Quadratic(), theta, [fake_episode()], alpha=0.1, steps=2)
    three = meta_gradient(Quadratic(), theta, [fake_episode()] * 3, alpha=0.1, steps=2)
    assert np.allclose(three, 3.0 * one, atol=1e-14)


def test_meta_gradient_rejects_empty_episodes():
    with pytest.raises(ValueError):
        meta_gradient(Quadratic(), np.array([1.0]), [], alpha=0.1, steps=1)


def test_meta_gradient_accepts_mode_strings():
    theta = np.array([1.0, 1.0])
    g = meta_gradient(Quadratic(), theta, [fake_episode()], alpha=0.1, steps=1, mode="first")
    assert np.allclose(g, 0.9 * theta, atol=1e-14)


# ----------------------------------------------------- net-objective algebra


def episode_from(data, rng):
    from curmeta.tasks import sample_episode

    return sample_episode(K5, data.train, 4, 4, rng)


def test_first_order_is_query_gradient_at_adapted(small_arch, small_data, rng):
    params = init_params(small_arch, rng)
    ep = episode_from(small_data, rng)
    obj = NetLoss(small_arch)
    adapted = inner_adapt(obj, params, ep.support, alpha=0.1, steps=3)
    g = meta_gradient(obj, params, [ep], alpha=0.1, steps=3, mode=GradientMode.FIRST)
    assert np.allclose(g, grad(small_arch, adapted, ep.query), atol=0)


def test_modes_coincide_at_zero_adaptation_rate(small_arch, small_data, rng):
    params = init_params(small_arch, rng)
    ep = episode_from(small_data, rng)
    obj = NetLoss(small_arch)
    first = meta_gradient(obj, params, [ep], alpha=0.0, steps=4, mode=GradientMode.FIRST)
    second = meta_gradient(obj, params, [ep], alpha=0.0, steps=4, mode=GradientMode.SECOND)
    assert np.array_equal(first, second)
    assert np.allclose(first, grad(small_arch, params, ep.query), atol=0)


def test_meta_gradient_matches_unrolled_finite_differences():
    # differentiate the whole adaptation unroll numerically on a smooth net
    rng = np.random.default_rng(8)
    arch = Architecture((2, 3, 2), activation="tanh")
    data = generate_source(SourceConfig(dim=2, seed=1), n_subjects=20)
    from curmeta.tasks import sample_episode

    ep = sample_episode(K5, data.train, 4, 4, rng)
    params = init_params(arch, rng)
    obj = NetLoss(arch)

    def unrolled_objective(p):
        adapted = inner_adapt(obj, p, ep.support, alpha=0.1, steps=2)
        return batch_loss(arch, adapted, ep.query)

    g = meta_gradient(obj, params, [ep], alpha=0.1, steps=2)
    fd = central_fd(unrolled_objective, params, h=1e-5)
    assert max_rel_error(g, fd, floor=1e-7) < 1e-4


# ---------------------------------------------------------------- run logs


def sample_log():
    return RunLog(
        (
            MetaUpdateRecord(1, "cl", ("K1", "K3"), (0.5, 0.4), (0.7, 0.6), (0.2, 0.2), (0.2, 0.2), 1.25),
            MetaUpdateRecord(2, "cl", ("K2",), (0.55,), (0.5,), (-0.05,), (-0.25,), 0.75),
        )
    )


def test_log_columns():
    assert LOG_COLUMNS == (
        "iteration",
        "sampler",
        "tasks",
        "auc_before",
        "auc_after",
        "observation",
        "reward",
        "grad_norm",
    )


def test_run_log_round_trip():
    log = sample_log()
    assert RunLog.from_tsv(log.to_tsv()) == log


def test_run_log_round_trip_preserves_awkward_floats():
    log = RunLog(
        (
            MetaUpdateRecord(
                1, "random", ("K5",), (1 / 3,), (2 / 3,), (1 / 3,), (1e-17,), 1e300
            ),
        )
    )
    back = RunLog.from_tsv(log.to_tsv())
    assert back.records[0].auc_before[0] == 1 / 3
    assert back.records[0].rewards[0] == 1e-17
    assert back.records[0].grad_norm == 1e300


def test_run_log_rejects_bad_header():
    with pytest.raises(ValueError, match="malformed run log"):
        RunLog.from_tsv("iteration\tsampler\n1\tcl\n")


def test_run_log_rejects_short_line():
    text = sample_log().to_tsv() + "3\tcl\tK1\n"
    with pytest.raises(ValueError, match="malformed run log"):
        RunLog.from_tsv(text)


@pytest.mark.parametrize(
    "column, value, expected",
    [
        (0, "z", "line 3: iteration must be an integer, got 'z'"),
        (3, "0.5,x", "line 3: auc_before must be comma-separated numbers, got '0.5,x'"),
        (7, "", "line 3: grad_norm must be a number, got ''"),
    ],
)
def test_run_log_names_the_line_and_column_of_a_bad_cell(column, value, expected):
    lines = sample_log().to_tsv().splitlines()
    parts = lines[2].split("\t")
    parts[column] = value
    lines[2] = "\t".join(parts)
    with pytest.raises(ValueError, match="malformed run log: " + re.escape(expected)):
        RunLog.from_tsv("\n".join(lines) + "\n")


@pytest.mark.parametrize("column", ["auc_before", "auc_after", "observation", "reward"])
def test_run_log_rejects_a_row_without_one_value_per_task(column):
    lines = sample_log().to_tsv().splitlines()
    parts = lines[1].split("\t")
    i = LOG_COLUMNS.index(column)
    parts[i] = parts[i].split(",")[0]  # one value for the two tasks K1, K3
    lines[1] = "\t".join(parts)
    expected = f"malformed run log: line 2: {column} must hold one value per task (2), got 1"
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        RunLog.from_tsv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "first, second, expected",
    [
        (1, 3, "line 3: iteration must be 2, got 3"),
        (2, 3, "line 2: iteration must be 1, got 2"),
        (1, 1, "line 3: iteration must be 2, got 1"),
    ],
)
def test_run_log_rejects_iterations_out_of_order(first, second, expected):
    lines = sample_log().to_tsv().splitlines()
    for ln, iteration in ((1, first), (2, second)):
        lines[ln] = "\t".join([str(iteration), *lines[ln].split("\t")[1:]])
    with pytest.raises(ValueError, match="^malformed run log: " + re.escape(expected) + "$"):
        RunLog.from_tsv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, expected",
    [
        ({"iteration": 3}, "record 2: iteration must be 2, got 3"),
        ({"auc_before": ()}, "record 2: auc_before must hold one value per task (1), got 0"),
        ({"rewards": (0.1, 0.2)}, "record 2: reward must hold one value per task (1), got 2"),
    ],
)
def test_run_log_checks_the_records_it_is_built_from(edit, expected):
    a, b = sample_log().records
    with pytest.raises(ValueError, match="^malformed run log: " + re.escape(expected) + "$"):
        RunLog((a, replace(b, **edit)))


def test_run_log_errors_count_blank_lines():
    text = sample_log().to_tsv().replace("\n2\t", "\n\n2\t").replace("\t0.75\n", "\tx\n")
    with pytest.raises(ValueError, match="line 4: grad_norm must be a number, got 'x'"):
        RunLog.from_tsv(text)


def test_content_hash_tracks_content():
    a, b = sample_log(), sample_log()
    assert a.content_hash() == b.content_hash()
    c = RunLog(a.records[:1])
    assert a.content_hash() != c.content_hash()


# -------------------------------------------------------------- meta_train


def quick_config(**kw):
    base = dict(meta_updates=3, inner_steps=2, meta_batch_size=2, seed=0)
    base.update(kw)
    return MetaConfig(**base)


def test_meta_train_returns_model_and_full_log(small_arch, small_data):
    model, log = meta_train(small_arch, quick_config(), small_data)
    assert model.params.shape == (small_arch.param_count,)
    assert len(log.records) == 3
    assert [r.iteration for r in log.records] == [1, 2, 3]
    for r in log.records:
        assert r.sampler == "random"
        assert len(r.tasks) == 2
        assert len(r.auc_before) == len(r.auc_after) == len(r.observations) == 2
        assert all(0.0 <= a <= 1.0 for a in r.auc_before + r.auc_after)
        assert r.grad_norm >= 0.0
    assert model.provenance.log_hash == log.content_hash()
    assert model.provenance.config["meta_updates"] == 3


@pytest.mark.parametrize(
    "mode, sampler, steps",
    [("second", "cl", 3), ("first", "mab", 3), ("second", "cl", 1)],
    ids=["second-cl", "first-mab", "second-cl-one-step"],
)
def test_meta_train_matches_per_episode_reference(small_arch, small_data, mode, sampler, steps):
    cfg = quick_config(
        meta_updates=8, inner_steps=steps, meta_batch_size=3, gradient_mode=mode, sampler=sampler, seed=6
    )
    # the first five updates fill the pool's buffers; the last three draw from them.
    # With one step the trajectory has one slot, and the step writes theta_1
    # there while the reverse sweep still needs the trace at theta_0.
    model, log = meta_train(small_arch, cfg, small_data)
    params, rows = reference_meta_train(small_arch, cfg, small_data, list(TASKS))
    assert np.array_equal(model.params, params)
    got = [
        (r.tasks, r.auc_before, r.auc_after, r.observations, r.rewards, r.grad_norm)
        for r in log.records
    ]
    assert got == rows


def test_meta_gradient_needs_equally_sized_episodes(small_arch, small_data, rng):
    from curmeta.tasks import sample_episode

    params = init_params(small_arch, rng)
    episodes = [sample_episode(K5, small_data.train, n, 4, rng) for n in (4, 6)]
    with pytest.raises(ValueError, match="share one shape"):
        meta_gradient(NetLoss(small_arch), params, episodes, alpha=0.1, steps=1)


def test_meta_train_deterministic(small_arch, small_data):
    m1, l1 = meta_train(small_arch, quick_config(seed=11), small_data)
    m2, l2 = meta_train(small_arch, quick_config(seed=11), small_data)
    m3, _ = meta_train(small_arch, quick_config(seed=12), small_data)
    assert np.array_equal(m1.params, m2.params)
    assert l1.to_tsv() == l2.to_tsv()
    assert not np.array_equal(m1.params, m3.params)


def test_meta_train_changes_params(small_arch, small_data):
    cfg = quick_config(seed=4)
    model, _ = meta_train(small_arch, cfg, small_data)
    init = init_params(small_arch, np.random.default_rng(np.random.SeedSequence(4).spawn(3)[0]))
    assert not np.array_equal(model.params, init)


def test_meta_train_zero_meta_rate_keeps_init(small_arch, small_data):
    cfg = quick_config(meta_rate=0.0, meta_updates=4, seed=9)
    model, log = meta_train(small_arch, cfg, small_data)
    init = init_params(small_arch, np.random.default_rng(np.random.SeedSequence(9).spawn(3)[0]))
    assert np.array_equal(model.params, init)
    # adaptation outcomes are still measured and logged
    assert sum(len(r.tasks) for r in log.records) == 4 * cfg.meta_batch_size


def test_meta_train_zero_updates(small_arch, small_data):
    model, log = meta_train(small_arch, quick_config(meta_updates=0, seed=2), small_data)
    assert log.records == ()
    init = init_params(small_arch, np.random.default_rng(np.random.SeedSequence(2).spawn(3)[0]))
    assert np.array_equal(model.params, init)


def test_meta_train_exclude_target_task(small_arch, small_data):
    cfg = quick_config(exclude_target_task=True, meta_updates=6, meta_batch_size=4)
    _, log = meta_train(small_arch, cfg, small_data)
    seen = set(t for r in log.records for t in r.tasks)
    assert "K5" not in seen
    assert seen <= {"K1", "K2", "K3", "K4"}


def test_meta_train_alltask_uses_each_task_once(small_arch, small_data):
    cfg = quick_config(sampler="alltask", meta_batch_size=5, meta_updates=2)
    _, log = meta_train(small_arch, cfg, small_data)
    for r in log.records:
        assert sorted(r.tasks) == ["K1", "K2", "K3", "K4", "K5"]
        assert r.sampler == "alltask"


def test_meta_train_reports_exhausted_pool_context(small_arch):
    starved = generate_source(SourceConfig(dim=4, seed=0), n_subjects=6)
    with pytest.raises(PoolExhaustedError, match="meta-update 1, task"):
        meta_train(small_arch, quick_config(), starved)


# ---------------------------------------------------------- lockstep meta_train


def assert_same_training(together, alone):
    """A lockstep result equals an independent meta_train result bit for bit."""
    (model, log), (model_alone, log_alone) = together, alone
    assert model.params.tobytes() == model_alone.params.tobytes()
    assert model.provenance == model_alone.provenance
    assert log.records == log_alone.records
    assert log.to_tsv() == log_alone.to_tsv()


@pytest.mark.parametrize("mode", ["second", "first"])
def test_meta_train_lockstep_equals_independent_calls(small_arch, small_data, mode):
    base = dict(meta_updates=8, inner_steps=2, gradient_mode=mode)
    configs = [
        MetaConfig(sampler="random", meta_batch_size=2, seed=3, **base),
        MetaConfig(sampler="alltask", meta_batch_size=5, seed=3, **base),
        MetaConfig(sampler="mab", meta_batch_size=3, exclude_target_task=True, seed=4, **base),
        MetaConfig(sampler="cl", meta_batch_size=4, exclude_target_task=True, seed=3, **base),
        MetaConfig(sampler="cl", meta_batch_size=1, meta_rate=0.05, seed=5, **base),
        MetaConfig(sampler="alltask", meta_batch_size=4, exclude_target_task=True, seed=6, **base),
    ]
    together = meta_train(small_arch, configs, small_data)
    assert len(together) == len(configs)
    for config, result in zip(configs, together):
        assert_same_training(result, meta_train(small_arch, config, small_data))
    # a stack of one is the plain call
    [single] = meta_train(small_arch, configs[:1], small_data)
    assert_same_training(single, meta_train(small_arch, configs[0], small_data))


def test_meta_train_lockstep_failing_rows_leave_the_stack(small_arch, small_data):
    # K3 has 13 eligible training samples here, too few for 7 + 7
    base = dict(meta_updates=3, inner_steps=2, n_tr=7, n_val=7)
    configs = [
        MetaConfig(sampler="alltask", meta_batch_size=5, seed=1, **base),  # K3 at update 1
        MetaConfig(sampler="cl", meta_batch_size=1, seed=2, **base),  # K1, K2, then K3 at update 3
        MetaConfig(sampler="random", meta_batch_size=1, seed=4, **base),  # survives
        MetaConfig(sampler="random", meta_batch_size=1, meta_rate=1e300, seed=4, **base),  # overflows
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        together = meta_train(small_arch, configs, small_data)
        outcomes = []
        for config in configs:
            try:
                outcomes.append(meta_train(small_arch, config, small_data))
            except Exception as e:
                outcomes.append(e)
    assert isinstance(together[0], PoolExhaustedError)
    assert str(together[0]).startswith("meta-update 1, task K3: ")
    assert isinstance(together[1], PoolExhaustedError)
    assert str(together[1]).startswith("meta-update 3, task K3: ")
    assert not isinstance(together[2], Exception)
    assert isinstance(together[3], FloatingPointError)
    for result, alone in zip(together, outcomes):
        if isinstance(result, Exception):
            assert type(result) is type(alone) and str(result) == str(alone)
        else:
            assert_same_training(result, alone)


# one value per STACK_FIELDS field that differs from quick_config's
STACK_CASES = {
    "n_tr": 5,
    "n_val": 3,
    "inner_steps": 3,
    "adaptation_rate": 0.2,
    "gradient_mode": "first",
    "meta_updates": 4,
}


@pytest.mark.parametrize("field, value", STACK_CASES.items())
def test_meta_train_stacks_the_configs_that_share_every_stack_field(
    small_arch, small_data, monkeypatch, field, value
):
    # the second config differs from the others in one field only
    configs = [quick_config(), quick_config(**{field: value}, seed=1), quick_config(sampler="cl", seed=2)]
    stacks = []
    lockstep = meta._meta_train_lockstep

    def recording(arch, stack, *args):
        stacks.append([c.seed for c in stack])
        return lockstep(arch, stack, *args)

    assert set(STACK_CASES) == set(STACK_FIELDS)
    monkeypatch.setattr(meta, "_meta_train_lockstep", recording)
    together = meta_train(small_arch, configs, small_data)
    assert stacks == [[0, 2], [1]]  # in order of first appearance
    assert len(together) == len(configs)
    for config, result in zip(configs, together):  # in input order
        assert_same_training(result, meta_train(small_arch, config, small_data))


def test_meta_train_a_failing_stack_is_its_members_entry(small_arch, small_data, monkeypatch):
    configs = [quick_config(), quick_config(inner_steps=3, seed=1), quick_config(seed=2)]
    configs.append(quick_config(inner_steps=3, seed=3))
    error = RuntimeError("the whole stack failed")
    lockstep = meta._meta_train_lockstep

    def failing(arch, stack, *args):
        if stack[0].inner_steps == 3:
            raise error
        return lockstep(arch, stack, *args)

    monkeypatch.setattr(meta, "_meta_train_lockstep", failing)
    together = meta_train(small_arch, configs, small_data)
    with pytest.raises(RuntimeError, match="the whole stack failed"):
        meta_train(small_arch, configs[1], small_data)  # one config raises its entry
    monkeypatch.undo()
    assert together[1] is error and together[3] is error
    for i in (0, 2):  # the other stack carried on
        assert_same_training(together[i], meta_train(small_arch, configs[i], small_data))


def test_meta_train_lockstep_needs_a_config(small_arch, small_data):
    with pytest.raises(ValueError, match="at least one config"):
        meta_train(small_arch, [], small_data)


# ------------------------------------------------------------ inference


def test_infer_is_positive_class_probability(small_arch, rng):
    params = init_params(small_arch, rng)
    model = TrainedModel(small_arch, params)
    x = rng.normal(size=(6, 4))
    expected = softmax(forward(small_arch, params, x))[:, 1]
    assert np.array_equal(infer(model, x), expected)
    assert np.array_equal(positive_probability(small_arch, params, x), expected)


# ------------------------------------------------------------- fine-tuning


def test_fine_tune_never_worse_on_validation(small_arch, small_data, rng):
    model = TrainedModel(small_arch, init_params(small_arch, rng))
    ft = fine_tune(model, K5, small_data, FineTuneConfig(epochs=5), rng=1)
    val = map_labels(K5, small_data.validation)
    from curmeta.metrics import compute_auc

    before = compute_auc(positive_probability(small_arch, model.params, val.inputs), val.labels)
    after = compute_auc(positive_probability(small_arch, ft.params, val.inputs), val.labels)
    assert after >= before


def test_fine_tune_zero_epochs_returns_input_params(small_arch, small_data, rng):
    model = TrainedModel(small_arch, init_params(small_arch, rng))
    ft = fine_tune(model, K5, small_data, FineTuneConfig(epochs=0), rng=1)
    assert np.array_equal(ft.params, model.params)


def test_fine_tune_deterministic_and_nonmutating(small_arch, small_data, rng):
    params = init_params(small_arch, rng)
    snapshot = params.copy()
    model = TrainedModel(small_arch, params)
    a = fine_tune(model, K5, small_data, FineTuneConfig(epochs=3), rng=7)
    b = fine_tune(model, K5, small_data, FineTuneConfig(epochs=3), rng=7)
    c = fine_tune(model, K5, small_data, FineTuneConfig(epochs=3), rng=8)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)
    assert np.array_equal(model.params, snapshot)


def test_fine_tune_merges_provenance(small_arch, small_data, rng):
    model = TrainedModel(
        small_arch, init_params(small_arch, rng), Provenance({"meta_updates": 5}, 3, "abc")
    )
    ft = fine_tune(model, K5, small_data, FineTuneConfig(epochs=1), rng=0)
    assert ft.provenance.config["meta_updates"] == 5
    assert ft.provenance.config["fine_tune"]["epochs"] == 1
    assert ft.provenance.seed == 3 and ft.provenance.log_hash == "abc"


def tuning_models(arch, count, seed):
    rng = np.random.default_rng(seed)
    return [
        TrainedModel(arch, init_params(arch, rng), Provenance({"row": b}, b, f"log{b}"))
        for b in range(count)
    ]


# a batch size that leaves a short last mini-batch on small_data's K5 train split
LOCKSTEP_FT = FineTuneConfig(learning_rate=0.2, batch_size=5, epochs=6)


@pytest.mark.parametrize("count", [2, 5, 13])
@pytest.mark.parametrize("hidden", [(8,), (6, 5)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_fine_tune_lockstep_equals_per_model_calls(small_data, count, hidden, activation):
    assert len(map_labels(K5, small_data.train)) % LOCKSTEP_FT.batch_size != 0
    arch = Architecture((4, *hidden, 2), activation)
    models = tuning_models(arch, count, seed=count)
    together = fine_tune(models, K5, small_data, LOCKSTEP_FT, rng=5)
    assert len(together) == count
    for model, tuned in zip(models, together):
        alone = fine_tune(model, K5, small_data, LOCKSTEP_FT, rng=5)
        assert np.array_equal(tuned.params, alone.params)
        assert tuned.arch == alone.arch
        assert tuned.provenance == alone.provenance


def test_fine_tune_lockstep_drops_only_the_overflowing_row(small_arch, small_data):
    models = tuning_models(small_arch, 4, seed=1)
    huge = TrainedModel(small_arch, np.full(small_arch.param_count, 1e300))
    models.insert(2, huge)
    with np.errstate(over="ignore", invalid="ignore"):
        together = fine_tune(models, K5, small_data, LOCKSTEP_FT, rng=4)
        with pytest.raises(FloatingPointError):
            fine_tune(huge, K5, small_data, LOCKSTEP_FT, rng=4)
    assert isinstance(together[2], FloatingPointError)
    for b in (0, 1, 3, 4):
        alone = fine_tune(models[b], K5, small_data, LOCKSTEP_FT, rng=4)
        assert np.array_equal(together[b].params, alone.params)
        assert together[b].provenance == alone.provenance


@pytest.mark.parametrize("hidden", [(8,), (6, 5)])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_fine_tune_of_one_model_is_plain_minibatch_sgd(small_data, hidden, activation):
    arch = Architecture((4, *hidden, 2), activation)
    [model] = tuning_models(arch, 1, seed=len(hidden))
    train, val = map_labels(K5, small_data.train), map_labels(K5, small_data.validation)
    expected = reference_fine_tune(arch, model.params, train, val, LOCKSTEP_FT, seed=3)
    assert np.array_equal(fine_tune(model, K5, small_data, LOCKSTEP_FT, rng=3).params, expected)
    [alone] = fine_tune([model], K5, small_data, LOCKSTEP_FT, rng=3)
    assert np.array_equal(alone.params, expected)


def test_fine_tune_lockstep_returns_a_failure_of_the_whole_call_as_every_entry(small_arch, small_data):
    val = small_data.validation
    negatives = val.classes == 0  # a K5 validation split with one class
    data = SplitDataset(
        small_data.train,
        Samples(val.features[negatives], val.classes[negatives], val.subjects[negatives]),
        small_data.test,
    )
    models = tuning_models(small_arch, 2, seed=0)
    together = fine_tune(models, K5, data, LOCKSTEP_FT, rng=1)
    assert len(together) == 2
    assert all(isinstance(entry, DegenerateAucError) for entry in together)
    with pytest.raises(DegenerateAucError):
        fine_tune(models[0], K5, data, LOCKSTEP_FT, rng=1)


def test_fine_tune_lockstep_validates_models(small_arch, small_data):
    with pytest.raises(ValueError, match="at least one model"):
        fine_tune([], K5, small_data, LOCKSTEP_FT)
    other = tuning_models(Architecture((4, 8, 2), "tanh"), 1, seed=0)
    with pytest.raises(ValueError, match="one architecture"):
        fine_tune(tuning_models(small_arch, 1, seed=0) + other, K5, small_data, LOCKSTEP_FT)


# ---------------------------------------------------------------- multitask


def test_multitask_deterministic(small_arch, small_data):
    a = multitask_train(small_arch, small_data, 4, seed=3)
    b = multitask_train(small_arch, small_data, 4, seed=3)
    c = multitask_train(small_arch, small_data, 4, seed=4)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_multitask_target_head_selected(small_arch, small_data):
    # K5 is last in TASKS, so its head is the fourth one drawn after init_params, not init_params'
    iters, bs, seed = 3, MULTITASK_BATCH, 5
    model = multitask_train(small_arch, small_data, iters, seed=seed)
    assert model.provenance == Provenance({"baseline": "multitask"}, seed)

    rng = derive_stream(seed, 2)
    head_len = (small_arch.layer_widths[-2] + 1) * small_arch.layer_widths[-1]
    trunk_len = small_arch.param_count - head_len
    first = init_params(small_arch, rng)
    trunk = first[:trunk_len]
    scale = 1.0 / np.sqrt(small_arch.layer_widths[-2])
    heads = {TASKS[0].id: first[trunk_len:]}
    for task in TASKS[1:]:
        heads[task.id] = rng.uniform(-scale, scale, size=head_len)
    for _ in range(iters):
        trunk_grad = np.zeros(trunk_len)
        for task in TASKS:
            full = map_labels(task, small_data.train)
            n = len(full)
            idx = rng.choice(n, size=min(bs, n), replace=n < bs)
            mini = Batch(full.inputs[idx], full.labels[idx])
            g = grad(small_arch, np.concatenate([trunk, heads[task.id]]), mini)
            trunk_grad += g[:trunk_len]
            heads[task.id] = heads[task.id] - MULTITASK_RATE * g[trunk_len:]
        trunk = trunk - MULTITASK_RATE * trunk_grad
    assert np.array_equal(model.params, np.concatenate([trunk, heads[K5.id]]))
    assert not np.array_equal(model.params[trunk_len:], heads[TASKS[0].id])


# ---------------------------------------------------------- learning curves


def test_meta_train_improves_post_adaptation_auc():
    # long-run check: the mean post-adaptation query AUC of the last 50
    # meta-updates beats the first 50 (seeds 0-2, margin typically > 0.1)
    from curmeta.harness import default_architecture

    data = generate_source(SourceConfig(seed=0), 117)
    arch = default_architecture(16)
    for seed in (0, 1, 2):
        _, log = meta_train(arch, MetaConfig(meta_updates=500, seed=seed), data)
        after = [float(np.mean(r.auc_after)) for r in log.records]
        assert np.mean(after[-50:]) > np.mean(after[:50])


# --------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    arch = Architecture((2, 3, 2), activation="tanh")
    params = np.zeros(arch.param_count)
    params[:6] = [1e-300, 0.0, -0.0, -1.5, np.pi, 1e300]
    params[6] = 1 / 3
    model = TrainedModel(arch, params, Provenance({"meta_rate": 0.001}, 42, "deadbeef"))
    path = tmp_path / "ck.json"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.arch == arch
    assert np.array_equal(back.params, params)
    assert np.signbit(back.params[2])  # negative zero survives
    assert back.provenance.config == {"meta_rate": 0.001}
    assert back.provenance.seed == 42
    assert back.provenance.log_hash == "deadbeef"


def test_checkpoint_write_is_deterministic(tmp_path, small_arch, rng):
    model = TrainedModel(small_arch, init_params(small_arch, rng))
    save_checkpoint(tmp_path / "a.json", model)
    save_checkpoint(tmp_path / "b.json", model)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "params_hex": []}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return edit


def put(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (drop("architecture", "activation"), "architecture.activation"),
        (drop("architecture", "layer_widths"), "architecture.layer_widths"),
        (drop("architecture"), "architecture"),
        (drop("params_hex"), "params_hex"),
        (put("x", "seed"), "seed"),
        (put(True, "seed"), "seed"),
        (put(1.5, "seed"), "seed"),
        (put(5, "log_hash"), "log_hash"),
        (put([], "config"), "config"),
        (put("relu", "architecture"), "architecture"),
        (put([4, 8.5, 2], "architecture", "layer_widths"), "layer_widths"),
        (put("sigmoid", "architecture", "activation"), "activation"),
        (put("zz", "params_hex", 0), "params_hex"),
        (put(1.0, "params_hex", 0), "params_hex"),
        (put([], "params_hex"), "params shape"),
    ],
)
def test_checkpoint_rejects_bad_fields_naming_them(tmp_path, small_arch, rng, edit, field):
    path = tmp_path / "ck.json"
    save_checkpoint(path, TrainedModel(small_arch, init_params(small_arch, rng)))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}:")


def test_checkpoint_optional_fields_default(tmp_path, small_arch, rng):
    path = tmp_path / "ck.json"
    model = TrainedModel(small_arch, init_params(small_arch, rng), Provenance({"a": 1}, 4, "h"))
    save_checkpoint(path, model)
    doc = json.loads(path.read_text())
    for key in ("config", "seed", "log_hash"):
        del doc[key]
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path).provenance == Provenance({}, 0, "")


def test_initial_params_is_where_meta_training_starts(small_arch, small_data):
    start = initial_params(small_arch, 9)
    model, _ = meta_train(small_arch, quick_config(meta_updates=0, seed=9), small_data)
    assert np.array_equal(model.params, start)
    assert np.array_equal(start, initial_params(small_arch, 9))
    assert not np.array_equal(start, initial_params(small_arch, 10))


def test_meta_train_model_checkpoints_round_trip(tmp_path, small_arch, small_data):
    model, log = meta_train(small_arch, quick_config(seed=21), small_data)
    path = tmp_path / "model.json"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert np.array_equal(back.params, model.params)
    assert back.provenance.log_hash == log.content_hash()
    assert back.provenance.config == config_to_dict(quick_config(seed=21))
