"""Small fully-connected classifier nets with exact gradients and Hessian-vector products.

All arithmetic is float64.  Model parameters live in a single flat vector whose
layout is fixed by the architecture: for each layer, the weight matrix
(row-major, shape fan_in x fan_out) followed by the bias vector.  Everything in
this module is a pure function of its inputs; there is no hidden state, so
callers may evaluate concurrently without synchronization.

``forward``, ``trace``, ``backward``, ``grad`` and ``hessian_vector_product``
also take a leading episode axis: with params of shape (B, P), inputs
(B, n, d) and labels (B, n), episode b is evaluated at its own parameter row
on its own batch, and the result has a leading axis of B.  Row b of a
stacked call carries the same bits as the plain call on episode b alone, so
a meta-batch can be evaluated in one call without changing any number.  Each
function has one body for both shapes.

``trace`` runs the checks and the forward pass once and keeps what the
derivatives need: the layers' weights, the activations and activation
derivatives, the softmax and the logit delta.  ``backward`` is the gradient
over a trace (``grad`` is ``backward(trace(...))``), and
``hessian_vector_product`` runs only the tangent sweeps over a trace, with a
direction of the trace's leading shape, so a caller that has traced a point
already pays for no second forward pass there.  ``Trace.row(b)`` is episode b
of a stacked trace, with the same bits as the trace of episode b alone.

Under the public functions is one unchecked core.  ``_forward`` runs the
forward pass over unpacked (W, b) layer views, and ``_trace`` adds the
derivative terms given one-hot targets (``_onehot``); ``_backward`` writes
the gradient into the layer views of a caller's buffer.  ``forward``,
``trace``, ``backward`` and ``grad`` check and unpack at the boundary and
call the core.  ``meta.fine_tune`` calls it directly: its views, targets and
gradient buffer stay fixed for the whole SGD loop, so it binds them once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")

# Flat float64 parameter vector; length is Architecture.param_count.
ParamVector = np.ndarray


@dataclass(frozen=True)
class Architecture:
    """Widths (input, hidden..., output) of a fully-connected classifier.

    The output layer produces raw logits (no activation); hidden layers use
    ``activation``.  At least one hidden layer and an output width of at least
    2 are required.
    """

    layer_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        widths = tuple(self.layer_widths)
        for w in widths:
            if isinstance(w, bool) or not isinstance(w, numbers.Integral):
                raise ValueError(f"layer_widths must be integers, got {w!r} in {widths!r}")
        widths = tuple(int(w) for w in widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 3:
            raise ValueError(
                f"need (input, hidden..., output) with at least one hidden layer, got {widths}"
            )
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ValueError(f"output width must be >= 2, got {widths[-1]}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        # per layer: where W starts, where b starts and ends in the flat vector, W's shape
        layout, offset = [], 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            end_w = offset + fan_in * fan_out
            layout.append((offset, end_w, end_w + fan_out, (fan_in, fan_out)))
            offset = end_w + fan_out
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_param_count", offset)

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def param_count(self) -> int:
        return self._param_count

    def unpack(self, params: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a flat parameter vector into per-layer (W, b) views.

        Stacked params (B, P) give stacked views: W is (B, fan_in, fan_out)
        and b is (B, 1, fan_out), which broadcasts over each episode's samples.
        """
        return _unpack(self, _check_params(self, params))


@dataclass(frozen=True)
class Batch:
    """A labelled sample batch: inputs (n x d) and binary labels (n,).

    With a leading episode axis, inputs are (B, n, d) and labels (B, n): B
    episodes of n samples each, as built by ``Batch.stack``.  ``len`` is the
    size of the leading axis.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if inputs.ndim not in (2, 3):
            raise ValueError(
                f"inputs must be (n, d), or (B, n, d) with an episode axis, got shape {inputs.shape}"
            )
        if 0 in inputs.shape[:-1]:
            raise ValueError("batch must contain at least one sample")
        if labels.shape != inputs.shape[:-1]:
            raise ValueError(
                f"labels shape {labels.shape} does not match inputs of shape {inputs.shape}"
            )
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def stack(cls, batches) -> "Batch":
        """One batch with a leading episode axis from equally sized plain batches."""
        batches = list(batches)
        shapes = {b.inputs.shape for b in batches}
        if len(shapes) != 1:
            raise ValueError(f"stacked batches must share one shape, got {sorted(shapes)}")
        if batches[0].inputs.ndim != 2:
            raise ValueError(f"inputs must be (n, d) to stack, got shape {batches[0].inputs.shape}")
        return _trusted(cls, np.stack([b.inputs for b in batches]), np.stack([b.labels for b in batches]))


def _trusted(cls, *values):
    """``cls(*values)`` for a frozen dataclass, without its checks: for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def init_params(arch: Architecture, rng: np.random.Generator) -> ParamVector:
    """Seeded per-layer uniform initialization with scale 1/sqrt(fan_in)."""
    chunks = []
    for fan_in, fan_out in zip(arch.layer_widths[:-1], arch.layer_widths[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-scale, scale, size=fan_in * fan_out))
        chunks.append(rng.uniform(-scale, scale, size=fan_out))
    return np.concatenate(chunks)


def _check_params(arch: Architecture, params: ParamVector) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != arch.param_count:
        raise ValueError(
            f"parameter vector has shape {params.shape}, architecture needs "
            f"({arch.param_count},) or (B, {arch.param_count})"
        )
    return params


def _unpack(arch: Architecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    if params.ndim == 1:
        return [(params[w:b].reshape(shape), params[b:end]) for w, b, end, shape in arch._layout]
    lead = params.shape[:1]
    return [
        (params[:, w:b].reshape(lead + shape), params[:, None, b:end])
        for w, b, end, shape in arch._layout
    ]


def _check_inputs(arch: Architecture, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Inputs as float64, with the same episode axis as the checked ``params``."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if (
        inputs.ndim != params.ndim + 1
        or inputs.shape[:-2] != params.shape[:-1]
        or inputs.shape[-1] != arch.input_dim
    ):
        lead = "" if params.ndim == 1 else f"{params.shape[0]}, "
        want = f"({lead}n, {arch.input_dim})"
        raise ValueError(f"inputs must have shape {want}, got {inputs.shape}")
    return inputs


def _activate(arch: Architecture, z: np.ndarray) -> np.ndarray:
    if arch.activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_deriv(arch: Architecture, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # relu derivative at exactly 0 is taken as 0 so repeated runs are reproducible;
    # the boolean mask multiplies like 1.0 / 0.0
    if arch.activation == "relu":
        return z > 0.0
    return 1.0 - a * a


def _onehot(labels: np.ndarray, width: int) -> np.ndarray:
    """float64 one-hot targets of integer labels, over a new last axis of ``width``."""
    return (labels[..., None] == np.arange(width)).astype(np.float64)


def _forward(arch, layers, inputs):
    """Forward pass over unpacked (W, b) views: the layers' inputs a_0 .. a_{L-1}
    and pre-activations z_1 .. z_L."""
    acts = [inputs]
    zs = []
    for i, (w, b) in enumerate(layers):
        zs.append(acts[-1] @ w + b)
        if i < len(layers) - 1:
            acts.append(_activate(arch, zs[-1]))
    return acts, zs


def forward(arch: Architecture, params: ParamVector, inputs: np.ndarray) -> np.ndarray:
    """Logits (n x output_dim) of the net at ``params`` on ``inputs``.

    Stacked params (B, P) and inputs (B, n, d) give logits (B, n, output_dim).
    """
    params = _check_params(arch, params)
    inputs = _check_inputs(arch, params, inputs)
    _, zs = _forward(arch, _unpack(arch, params), inputs)
    return zs[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log softmax probability of the true class.

    Uses the log-sum-exp form so saturated logits (magnitude up to ~1e4) never
    overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be a 2-D matrix, got shape {logits.shape}")
    n = logits.shape[0]
    if n < 1:
        raise ValueError("cannot take cross-entropy of an empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(n), labels]))


def batch_loss(arch: Architecture, params: ParamVector, batch: Batch) -> float:
    """Cross-entropy of the net on a batch."""
    return cross_entropy(forward(arch, params, batch.inputs), batch.labels)


@dataclass(frozen=True)
class Trace:
    """The forward pass of a net at params on a batch, kept for its derivatives.

    ``weights`` are views into the params (one per layer), ``acts`` the
    inputs a_0 .. a_{L-1} of the layers, ``derivs`` the activation
    derivatives of the hidden layers, ``probs`` the softmax of the logits
    and ``delta`` the gradient of the mean cross-entropy w.r.t. the logits.
    A stacked trace carries a leading episode axis on every array.
    """

    arch: Architecture
    weights: list
    acts: list
    derivs: list
    probs: np.ndarray
    delta: np.ndarray

    def row(self, b: int) -> "Trace":
        """Episode b of a stacked trace: the trace of that episode alone, bit for bit."""
        return _trusted(
            Trace,
            self.arch,
            [w[b] for w in self.weights],
            [a[b] for a in self.acts],
            [d[b] for d in self.derivs],
            self.probs[b],
            self.delta[b],
        )


def trace(arch: Architecture, params: ParamVector, batch: Batch) -> Trace:
    """Check the inputs and run the forward pass of the batch cross-entropy at ``params``.

    Stacked params (B, P) and a stacked batch give a stacked trace.
    """
    params = _check_params(arch, params)
    inputs = _check_inputs(arch, params, batch.inputs)
    return _trace(arch, _unpack(arch, params), inputs, _onehot(batch.labels, arch.output_dim))


def _trace(arch, layers, inputs, onehot) -> Trace:
    """``trace`` over unpacked (W, b) views and one-hot targets, unchecked."""
    acts, zs = _forward(arch, layers, inputs)
    derivs = [_activation_deriv(arch, z, a) for z, a in zip(zs, acts[1:])]
    probs = softmax(zs[-1])
    # the gradient of the mean cross-entropy w.r.t. the logits
    delta = (probs - onehot) / probs.shape[-2]
    return _trusted(Trace, arch, [w for w, _ in layers], acts, derivs, probs, delta)


def backward(tr: Trace) -> ParamVector:
    """Exact reverse-mode gradient of the traced batch cross-entropy w.r.t. params.

    A stacked trace gives a (B, P) result whose row b is the gradient of
    episode b's own mean loss.
    """
    out = np.empty(tr.probs.shape[:-2] + (tr.arch.param_count,))
    _backward(tr, _unpack(tr.arch, out))
    return out


def _backward(tr: Trace, grads) -> None:
    """``backward`` written into ``grads``, the unpacked (W, b) views of a gradient buffer."""
    delta = tr.delta
    for i in range(len(tr.weights) - 1, -1, -1):
        gw, gb = grads[i]
        # a stacked bias view is (B, 1, fan_out), so a stacked sum keeps its sample axis
        np.add.reduce(delta, axis=-2, keepdims=delta.ndim == 3, out=gb)
        np.matmul(tr.acts[i].swapaxes(-1, -2), delta, out=gw)
        if i > 0:
            delta = (delta @ tr.weights[i].swapaxes(-1, -2)) * tr.derivs[i - 1]


def grad(arch: Architecture, params: ParamVector, batch: Batch) -> ParamVector:
    """Exact reverse-mode gradient of the batch cross-entropy w.r.t. params.

    Stacked params (B, P) and a stacked batch give a (B, P) result whose row b
    is the gradient of episode b's own mean loss.
    """
    return backward(trace(arch, params, batch))


def hessian_vector_product(tr: Trace, v: ParamVector) -> ParamVector:
    """Exact H @ v for the Hessian H of the traced batch cross-entropy.

    Forward-over-reverse on the trace: a tangent in direction ``v`` is
    propagated through the forward pass and then through backprop, which
    differentiates the gradient computation itself (no finite differencing
    anywhere).  A stacked trace of B episodes takes ``v`` of shape (B, P) and
    gives a (B, P) result whose row b is episode b's own H @ v.
    """
    arch, weights, acts, derivs = tr.arch, tr.weights, tr.acts, tr.derivs
    lead = tr.probs.shape[:-2]
    v, want = np.asarray(v, dtype=np.float64), lead + (arch.param_count,)
    if v.shape != want:
        raise ValueError(f"direction vector has shape {v.shape}, need {want}")
    vlayers = _unpack(arch, v)
    n_layers = len(weights)

    # Tangent forward pass: r_acts[i] is the directional derivative of acts[i].
    # The inputs do not depend on the params, so r_acts[0] is zero and is left
    # out of both sweeps.
    r_acts = [None]
    rz = acts[0] @ vlayers[0][0] + vlayers[0][1]
    for i in range(1, n_layers):
        r_acts.append(derivs[i - 1] * rz)
        vw, vb = vlayers[i]
        rz = r_acts[i] @ weights[i] + acts[i] @ vw + vb

    p = tr.probs
    r_delta = rz - np.add.reduce(p * rz, axis=-1, keepdims=True)
    r_delta *= p
    r_delta /= p.shape[-2]
    delta = tr.delta

    out = np.empty(want)
    hv = _unpack(arch, out)  # written layer by layer, output layer first
    for i in range(n_layers - 1, -1, -1):
        gw, gb = hv[i]
        np.add.reduce(r_delta, axis=-2, keepdims=r_delta.ndim == 3, out=gb)
        np.matmul(acts[i].swapaxes(-1, -2), r_delta, out=gw)
        if i == 0:
            return out
        gw += r_acts[i].swapaxes(-1, -2) @ delta
        wt = weights[i].swapaxes(-1, -2)
        d = derivs[i - 1]
        new_r_delta = r_delta @ wt
        new_r_delta += delta @ vlayers[i][0].swapaxes(-1, -2)
        new_r_delta *= d
        # the input layer's gradient needs only r_delta; s feeds delta and the tanh term
        if i > 1 or arch.activation == "tanh":
            s = delta @ wt
            if arch.activation == "tanh":
                # d = 1 - a^2, so the tangent of d is -2 a r_a
                new_r_delta += s * (-2.0 * acts[i] * r_acts[i])
            if i > 1:
                delta = s * d
        r_delta = new_r_delta
