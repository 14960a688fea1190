"""Tests for the small fully-connected nets: exact gradients and HVPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curmeta.nets import (
    ACTIVATIONS,
    Architecture,
    Batch,
    backward,
    batch_loss,
    cross_entropy,
    forward,
    grad,
    hessian_vector_product,
    init_params,
    softmax,
    trace,
)
from oracles import central_fd, max_rel_error, reference_backward, reference_hvp


def tiny_batch(rng, n, dim):
    inputs = rng.normal(size=(n, dim))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    elif labels.sum() == n:
        labels[0] = 0
    return Batch(inputs, labels)


# ---------------------------------------------------------------- architecture


def test_architecture_requires_hidden_layer():
    with pytest.raises(ValueError):
        Architecture((4, 2))


def test_architecture_rejects_small_output():
    with pytest.raises(ValueError):
        Architecture((4, 3, 1))


def test_architecture_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        Architecture((4, 0, 2))


def test_architecture_rejects_unknown_activation():
    with pytest.raises(ValueError):
        Architecture((4, 3, 2), activation="sigmoid")


@pytest.mark.parametrize(
    "widths", [(16.7, 24, 2), (16, 24.0, 2), (True, 24, 2), ("16", 24, 2), "16,24,2"]
)
def test_architecture_rejects_non_integer_widths_naming_the_field(widths):
    with pytest.raises(ValueError, match="layer_widths"):
        Architecture(widths)


def test_architecture_accepts_numpy_integer_widths():
    arch = Architecture((np.int64(16), np.int32(24), np.uint8(2)))
    assert arch.layer_widths == (16, 24, 2)
    assert all(type(w) is int for w in arch.layer_widths)
    assert arch == Architecture((16, 24, 2))
    assert arch.param_count == 17 * 24 + 25 * 2


def test_architecture_is_hashable_and_frozen():
    arch = Architecture((4, 3, 2))
    assert arch == Architecture((4, 3, 2))
    assert hash(arch) == hash(Architecture((4, 3, 2)))
    with pytest.raises(AttributeError):
        arch.activation = "tanh"


def test_param_count_matches_unpacked_shapes():
    arch = Architecture((5, 7, 3, 2), activation="tanh")
    expected = 5 * 7 + 7 + 7 * 3 + 3 + 3 * 2 + 2
    assert arch.param_count == expected
    layers = arch.unpack(np.zeros(arch.param_count))
    shapes = [(w.shape, b.shape) for w, b in layers]
    assert shapes == [((5, 7), (7,)), ((7, 3), (3,)), ((3, 2), (2,))]


def test_unpack_views_alias_the_flat_vector():
    arch = Architecture((2, 3, 2))
    params = np.arange(arch.param_count, dtype=np.float64)
    w0, b0 = arch.unpack(params)[0]
    assert np.array_equal(w0.ravel(), params[:6])
    assert np.array_equal(b0, params[6:9])


def test_unpack_rejects_wrong_length():
    arch = Architecture((2, 3, 2))
    with pytest.raises(ValueError):
        arch.unpack(np.zeros(arch.param_count + 1))


# ------------------------------------------------------------------ batch


def test_batch_validates_shapes():
    with pytest.raises(ValueError):
        Batch(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_batch_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 3)), np.array([0, 2]))
    # fractional labels are checked before the integer cast, not truncated to 0 and 1
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Batch(np.zeros((2, 2)), [0.7, 1.9])
    for labels in ([False, True], [0.0, 1.0]):
        assert Batch(np.zeros((2, 2)), labels).labels.tolist() == [0, 1]


def test_batch_len():
    b = Batch(np.zeros((5, 2)), np.array([0, 1, 0, 1, 0]))
    assert len(b) == 5


# ------------------------------------------------------------------ init


def test_init_params_bounds_and_determinism():
    arch = Architecture((9, 6, 2))
    p1 = init_params(arch, np.random.default_rng(7))
    p2 = init_params(arch, np.random.default_rng(7))
    assert p1.shape == (arch.param_count,)
    assert np.array_equal(p1, p2)
    # first layer entries scale as 1/sqrt(9), second as 1/sqrt(6)
    first = p1[: 9 * 6 + 6]
    second = p1[9 * 6 + 6 :]
    assert np.all(np.abs(first) <= 1.0 / 3.0)
    assert np.all(np.abs(second) <= 1.0 / np.sqrt(6.0))
    assert np.abs(second).max() > 1.0 / 3.0  # second layer really uses its wider range


def test_init_params_differ_between_seeds():
    arch = Architecture((4, 3, 2))
    a = init_params(arch, np.random.default_rng(0))
    b = init_params(arch, np.random.default_rng(1))
    assert not np.array_equal(a, b)


# ------------------------------------------------------------------ forward


def test_forward_matches_manual_two_layer_computation(rng):
    arch = Architecture((3, 4, 2), activation="tanh")
    params = init_params(arch, rng)
    x = rng.normal(size=(6, 3))
    (w1, b1), (w2, b2) = arch.unpack(params)
    manual = np.tanh(x @ w1 + b1) @ w2 + b2
    assert np.allclose(forward(arch, params, x), manual, atol=0, rtol=0)


def test_forward_relu_clamps_hidden(rng):
    arch = Architecture((3, 4, 2), activation="relu")
    params = init_params(arch, rng)
    x = rng.normal(size=(5, 3))
    (w1, b1), (w2, b2) = arch.unpack(params)
    manual = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(forward(arch, params, x), manual, atol=0, rtol=0)


def test_forward_rejects_wrong_input_width(rng):
    arch = Architecture((3, 4, 2))
    params = init_params(arch, rng)
    with pytest.raises(ValueError):
        forward(arch, params, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        forward(arch, params, np.zeros(3))


# ------------------------------------------------------------------ softmax


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(8, 5)) * 3)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_softmax_shift_invariance(rng):
    logits = rng.normal(size=(4, 3))
    shifted = logits + rng.normal(size=(4, 1)) * 100
    assert np.allclose(softmax(logits), softmax(shifted), atol=1e-12)


def test_softmax_survives_huge_logits():
    p = softmax(np.array([[1e4, -1e4], [-1e4, 1e4]]))
    assert np.all(np.isfinite(p))
    assert np.allclose(p, [[1.0, 0.0], [0.0, 1.0]])


# ------------------------------------------------------------- cross-entropy


def test_cross_entropy_matches_log_probability(rng):
    logits = rng.normal(size=(7, 2)) * 2
    labels = rng.integers(0, 2, size=7)
    p = softmax(logits)
    expected = -np.mean(np.log(p[np.arange(7), labels]))
    assert np.isclose(cross_entropy(logits, labels), expected, atol=1e-12)


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 2))
    assert np.isclose(cross_entropy(logits, np.array([0, 1, 0])), np.log(2.0))


def test_cross_entropy_saturated_logits_finite():
    logits = np.array([[1e4, -1e4]])
    assert np.isfinite(cross_entropy(logits, np.array([1])))
    assert np.isclose(cross_entropy(logits, np.array([0])), 0.0, atol=1e-12)


def test_cross_entropy_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(4), np.zeros(4, dtype=int))


def test_batch_loss_is_forward_plus_cross_entropy(rng):
    arch = Architecture((3, 5, 2))
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 6, 3)
    expected = cross_entropy(forward(arch, params, batch.inputs), batch.labels)
    assert batch_loss(arch, params, batch) == expected


# ------------------------------------------------------------------ gradient


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_grad_matches_central_differences(activation):
    rng = np.random.default_rng(42)
    arch = Architecture((2, 4, 2), activation=activation)
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 8, 2)
    g = grad(arch, params, batch)
    fd = central_fd(lambda p: batch_loss(arch, p, batch), params, h=1e-5)
    assert max_rel_error(g, fd) < 1e-5


def test_grad_matches_fd_on_deeper_net():
    rng = np.random.default_rng(5)
    arch = Architecture((3, 4, 3, 2), activation="tanh")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 5, 3)
    fd = central_fd(lambda p: batch_loss(arch, p, batch), params, h=1e-5)
    assert max_rel_error(grad(arch, params, batch), fd) < 1e-5


def test_grad_mean_invariant_under_duplication(rng):
    arch = Architecture((3, 4, 2))
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 4, 3)
    doubled = Batch(
        np.vstack([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
    )
    assert np.allclose(grad(arch, params, batch), grad(arch, params, doubled), atol=1e-14)


def test_grad_zero_through_dead_relu_unit(rng):
    # drive one hidden unit permanently negative; its incoming weights get no gradient
    arch = Architecture((3, 4, 2), activation="relu")
    params = init_params(arch, rng)
    layers = arch.unpack(params)
    layers[0][0][:, 0] = 0.0
    layers[0][1][0] = -5.0
    batch = tiny_batch(rng, 6, 3)
    g = grad(arch, params, batch)
    gw1, gb1 = arch.unpack(g)[0]
    assert np.all(gw1[:, 0] == 0.0)
    assert gb1[0] == 0.0


def test_grad_rejects_bad_shapes(rng):
    arch = Architecture((3, 4, 2))
    batch = tiny_batch(rng, 4, 3)
    with pytest.raises(ValueError):
        grad(arch, np.zeros(arch.param_count - 1), batch)


# ---------------------------------------------------------------------- hvp


def test_hvp_matches_fd_of_gradient():
    rng = np.random.default_rng(11)
    arch = Architecture((2, 3, 2), activation="tanh")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 6, 2)
    v = rng.normal(size=arch.param_count)
    hv = hessian_vector_product(trace(arch, params, batch), v)
    h = 1e-6
    fd = (grad(arch, params + h * v, batch) - grad(arch, params - h * v, batch)) / (2 * h)
    assert max_rel_error(hv, fd, floor=1e-6) < 1e-4


def test_hvp_matches_fd_of_gradient_relu():
    # relu Hessian is piecewise constant in the hidden pre-activations, so a
    # small step keeps all the kink signs fixed at this seed
    rng = np.random.default_rng(3)
    arch = Architecture((2, 4, 2), activation="relu")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 8, 2)
    v = rng.normal(size=arch.param_count)
    hv = hessian_vector_product(trace(arch, params, batch), v)
    h = 1e-6
    fd = (grad(arch, params + h * v, batch) - grad(arch, params - h * v, batch)) / (2 * h)
    assert max_rel_error(hv, fd, floor=1e-6) < 1e-4


def test_hvp_linear_in_direction(rng):
    arch = Architecture((3, 4, 2), activation="tanh")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 5, 3)
    u = rng.normal(size=arch.param_count)
    v = rng.normal(size=arch.param_count)
    tr = trace(arch, params, batch)
    hu = hessian_vector_product(tr, u)
    hv = hessian_vector_product(tr, v)
    combo = hessian_vector_product(tr, 2.0 * u - 0.5 * v)
    assert np.allclose(combo, 2.0 * hu - 0.5 * hv, atol=1e-10)


def test_hvp_symmetry(rng):
    arch = Architecture((3, 5, 2), activation="tanh")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 6, 3)
    u = rng.normal(size=arch.param_count)
    v = rng.normal(size=arch.param_count)
    tr = trace(arch, params, batch)
    left = u @ hessian_vector_product(tr, v)
    right = v @ hessian_vector_product(tr, u)
    assert np.isclose(left, right, atol=1e-10)


def test_hvp_zero_direction(rng):
    arch = Architecture((3, 4, 2))
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 4, 3)
    hv = hessian_vector_product(trace(arch, params, batch), np.zeros(arch.param_count))
    assert np.array_equal(hv, np.zeros(arch.param_count))


def test_hvp_rejects_bad_direction_shape(rng):
    arch = Architecture((3, 4, 2))
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 4, 3)
    with pytest.raises(ValueError):
        hessian_vector_product(trace(arch, params, batch), np.zeros(arch.param_count + 2))


@pytest.mark.parametrize("widths", [(5, 7, 2), (5, 7, 3, 2), (16, 24, 2)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_hvp_on_a_stacked_trace_row_equals_the_untraced_reference(widths, activation, n):
    """Row b of one stacked call, the call on row b of the stacked trace and the
    call on episode b's own trace all carry the reference's bits."""
    rng = np.random.default_rng(7 * n + len(widths))
    arch = Architecture(widths, activation=activation)
    for episodes in (1, 3, 13):
        params = np.stack([init_params(arch, rng) for _ in range(episodes)])
        batches = [tiny_batch(rng, n, widths[0]) for _ in range(episodes)]
        stacked = trace(arch, params, Batch.stack(batches))
        vs = rng.normal(size=params.shape)
        hv = hessian_vector_product(stacked, vs)
        assert hv.shape == params.shape
        for b, batch in enumerate(batches):
            row, alone = stacked.row(b), trace(arch, params[b], batch)
            for got, want in zip(
                [*row.weights, *row.acts, *row.derivs, row.probs, row.delta],
                [*alone.weights, *alone.acts, *alone.derivs, alone.probs, alone.delta],
            ):
                assert got.shape == want.shape and np.array_equal(got, want)
            expected = reference_hvp(arch, params[b], batch, vs[b])
            assert np.array_equal(hv[b], expected)
            assert np.array_equal(hessian_vector_product(row, vs[b]), expected)
            assert np.array_equal(hessian_vector_product(alone, vs[b]), expected)


def test_grad_is_the_backward_pass_of_the_trace(rng):
    arch = Architecture((3, 4, 2), activation="tanh")
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 5, 3)
    tr = trace(arch, params, batch)
    assert np.array_equal(backward(tr), grad(arch, params, batch))
    assert np.array_equal(tr.probs, softmax(forward(arch, params, batch.inputs)))


@pytest.mark.parametrize("widths", [(5, 7, 2), (5, 7, 3, 2)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize(
    "episodes, shared", [(None, False)] + [(b, s) for b in (1, 5, 13) for s in (False, True)]
)
@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_buffered_backward_equals_the_concatenating_reference(widths, activation, episodes, n, shared):
    """The gradient written into a buffer's layer views has the bits of the per-layer
    concatenation, 2-D or stacked; ``shared`` stacks one batch broadcast to every row,
    as fine-tuning does."""
    rng = np.random.default_rng(97 * n + 5 * (episodes or 0) + len(widths))
    arch = Architecture(widths, activation=activation)
    if episodes is None:
        params, batch = init_params(arch, rng), tiny_batch(rng, n, widths[0])
    else:
        params = np.stack([init_params(arch, rng) for _ in range(episodes)])
        if shared:
            one = tiny_batch(rng, n, widths[0])
            batch = Batch(
                np.broadcast_to(one.inputs, (episodes,) + one.inputs.shape),
                np.broadcast_to(one.labels, (episodes, n)),
            )
        else:
            batch = Batch.stack(tiny_batch(rng, n, widths[0]) for _ in range(episodes))
    tr = trace(arch, params, batch)
    expected = reference_backward(tr)
    assert expected.shape == params.shape
    assert np.array_equal(backward(tr), expected)
    assert np.array_equal(grad(arch, params, batch), expected)


# ------------------------------------------------------------ episode axis


@pytest.mark.parametrize("widths", [(5, 7, 2), (5, 7, 3, 2)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("episodes", [1, 5])
@pytest.mark.parametrize("n", [4, 23])
def test_stacked_calls_equal_per_episode_calls(widths, activation, episodes, n):
    rng = np.random.default_rng(31 * episodes + n)
    arch = Architecture(widths, activation=activation)
    params = np.stack([init_params(arch, rng) for _ in range(episodes)])
    batches = [tiny_batch(rng, n, widths[0]) for _ in range(episodes)]
    stacked = Batch.stack(batches)
    logits = forward(arch, params, stacked.inputs)
    g = grad(arch, params, stacked)
    assert logits.shape == (episodes, n, widths[-1])
    assert g.shape == params.shape
    for b, batch in enumerate(batches):
        assert np.array_equal(logits[b], forward(arch, params[b], batch.inputs))
        assert np.array_equal(g[b], grad(arch, params[b], batch))


def test_batch_stack_builds_episode_axis(rng):
    batches = [tiny_batch(rng, 4, 3) for _ in range(2)]
    stacked = Batch.stack(batches)
    assert stacked.inputs.shape == (2, 4, 3)
    assert stacked.labels.shape == (2, 4)
    assert len(stacked) == 2
    assert np.array_equal(stacked.labels[1], batches[1].labels)
    with pytest.raises(ValueError, match="share one shape"):
        Batch.stack([tiny_batch(rng, 4, 3), tiny_batch(rng, 6, 3)])
    with pytest.raises(ValueError, match="inputs must be"):
        Batch.stack([stacked])
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 4, 3)), np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2, 4, 3)), np.zeros((2, 2, 4), dtype=int))


def test_stacked_unpack_shapes():
    arch = Architecture((5, 7, 2))
    params = np.arange(3 * arch.param_count, dtype=np.float64).reshape(3, arch.param_count)
    (w1, b1), (w2, b2) = arch.unpack(params)
    assert [w1.shape, b1.shape, w2.shape, b2.shape] == [(3, 5, 7), (3, 1, 7), (3, 7, 2), (3, 1, 2)]
    for b in range(3):
        (v1, c1), (v2, c2) = arch.unpack(params[b])
        assert np.array_equal(w1[b], v1) and np.array_equal(b1[b, 0], c1)
        assert np.array_equal(w2[b], v2) and np.array_equal(b2[b, 0], c2)


def test_episode_axes_must_agree(rng):
    arch = Architecture((3, 4, 2))
    params = np.stack([init_params(arch, rng) for _ in range(2)])
    stacked = Batch.stack([tiny_batch(rng, 4, 3) for _ in range(3)])
    plain = tiny_batch(rng, 4, 3)
    with pytest.raises(ValueError, match="inputs must have shape"):
        grad(arch, params, stacked)
    with pytest.raises(ValueError, match="inputs must have shape"):
        forward(arch, params, plain.inputs)
    with pytest.raises(ValueError, match="inputs must have shape"):
        forward(arch, params[0], stacked.inputs)
    with pytest.raises(ValueError, match="parameter vector"):
        grad(arch, np.zeros((2, 2, arch.param_count)), plain)
    with pytest.raises(ValueError, match=r"direction vector has shape \(26,\), need \(2, 26\)"):
        hessian_vector_product(trace(arch, params, Batch.stack([plain, plain])), params[0])


# ------------------------------------------------------------ property based


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), activation=st.sampled_from(ACTIVATIONS))
def test_grad_is_finite_and_descends(seed, activation):
    rng = np.random.default_rng(seed)
    arch = Architecture((3, 4, 2), activation=activation)
    params = init_params(arch, rng)
    batch = tiny_batch(rng, 6, 3)
    g = grad(arch, params, batch)
    assert np.all(np.isfinite(g))
    before = batch_loss(arch, params, batch)
    after = batch_loss(arch, params - 1e-3 * g, batch)
    assert after <= before + 1e-12
