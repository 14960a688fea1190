"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (per-coordinate
finite differences, all-pairs counting, plain-list buffers, one row or one
sample object at a time) so the fast library paths have something external
to agree with.
"""

from collections import namedtuple

import numpy as np


def central_fd(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def max_rel_error(approx, exact, floor=1e-8):
    """Largest relative error, falling back to absolute error below the floor."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    err = np.abs(approx - exact)
    scale = np.maximum(np.abs(exact), np.abs(approx))
    rel = np.where(scale > floor, err / np.maximum(scale, floor), err)
    return float(rel.max())


def concordance_auc(scores, labels):
    """All-pairs ranking probability of positives over negatives, ties counted half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("concordance needs both classes")
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_auc(scores, labels) -> float:
    """1-D tie-group trapezoid AUC, one row at a time (the library's earlier code)."""
    from curmeta.metrics import DegenerateAucError

    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must have equal length, got {scores.shape} vs {labels.shape}"
        )
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateAucError(
            f"degenerate AUC: need both classes, got {n_pos} positives and {n_neg} negatives"
        )

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # one group per distinct score, descending
    starts = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(starts) - 1
    tp_g = np.bincount(group, weights=y)
    fp_g = np.bincount(group, weights=1 - y)
    tp = np.cumsum(tp_g)
    tp_prev = tp - tp_g
    area = float(np.sum(fp_g * (tp_prev + tp)) / 2.0)
    return area / (n_pos * n_neg)


SourceSample = namedtuple("SourceSample", "features source_class subject_id")


def source_rows(samples):
    """A split's samples as a list of ``SourceSample`` rows, one Python object per sample."""
    return [
        SourceSample(features, cls, subject)
        for features, cls, subject in zip(
            samples.features, samples.classes.tolist(), samples.subjects.tolist()
        )
    ]


def reference_sample_episode(task, pool, n_tr, n_val, rng, max_attempts=200):
    """Episode sampling over a list of ``SourceSample`` rows, with Python sets.

    The library's earlier object-list code: the same ``rng.choice`` calls on
    the same sorted index arrays, the same checks and the same messages.
    """
    from curmeta.nets import Batch
    from curmeta.tasks import Episode, PoolExhaustedError

    if n_tr < 2 or n_val < 2:
        raise ValueError("n_tr and n_val must be >= 2 so both labels can be present")
    eligible = [s for s in pool if s.source_class in task.included_classes]
    labels = np.array([int(s.source_class in task.positive_classes) for s in eligible])
    subjects = np.array([s.subject_id for s in eligible])
    n = len(eligible)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if n < n_tr + n_val or len(pos) == 0 or len(neg) == 0:
        raise PoolExhaustedError(
            f"pool exhausted for task {task.id}: {n} eligible samples "
            f"({len(pos)} positive, {len(neg)} negative), need {n_tr}+{n_val} with both labels"
        )

    for _ in range(max_attempts):
        chosen = {int(rng.choice(pos)), int(rng.choice(neg))}
        rest = np.array(sorted(set(range(n)) - chosen))
        if len(rest) < n_tr - len(chosen):
            break
        fill = rng.choice(rest, size=n_tr - len(chosen), replace=False)
        support_idx = sorted(chosen | set(int(i) for i in fill))
        support_subj = set(int(subjects[i]) for i in support_idx)

        candidates = [i for i in range(n) if int(subjects[i]) not in support_subj]
        cand_pos = [i for i in candidates if labels[i] == 1]
        cand_neg = [i for i in candidates if labels[i] == 0]
        if len(candidates) < n_val or not cand_pos or not cand_neg:
            continue
        q_chosen = {int(rng.choice(cand_pos)), int(rng.choice(cand_neg))}
        q_rest = np.array(sorted(set(candidates) - q_chosen))
        if len(q_rest) < n_val - len(q_chosen):
            continue
        q_fill = rng.choice(q_rest, size=n_val - len(q_chosen), replace=False)
        query_idx = sorted(q_chosen | set(int(i) for i in q_fill))

        support = Batch(
            np.stack([eligible[i].features for i in support_idx]),
            labels[support_idx],
        )
        query = Batch(
            np.stack([eligible[i].features for i in query_idx]),
            labels[query_idx],
        )
        return Episode(task, support, query)
    raise PoolExhaustedError(
        f"pool exhausted for task {task.id}: no subject-disjoint stratified draw "
        f"found in {max_attempts} attempts"
    )


class ReferenceSampler:
    """Plain-list re-implementation of the buffered task-selection contract.

    Contract mirrored: per-task buffers capped at ``capacity`` (oldest value
    dropped), bootstrap of never-recorded tasks in pool order without touching
    the RNG, otherwise one uniform index draw per pool task in pool order and
    a first-maximum scan over the drawn values (absolute values for "cl",
    signed for "mab").  Observations are raw after-minus-before differences;
    rewards subtract the task's previous observation (default 0).
    """

    def __init__(self, kind, rng, capacity=10):
        self.kind = kind
        self.rng = rng
        self.capacity = capacity
        self.buffers = {}
        self.last = {}

    def _select_one(self, pool):
        for task in pool:
            if not self.buffers.get(task.id):
                return task
        drawn = []
        for task in pool:
            buf = self.buffers[task.id]
            drawn.append(buf[int(self.rng.integers(len(buf)))])
        keys = [abs(d) for d in drawn] if self.kind == "cl" else drawn
        best = 0
        for i in range(1, len(keys)):
            if keys[i] > keys[best]:
                best = i
        return pool[best]

    def select_batch(self, pool, size):
        if self.kind == "random":
            return [pool[int(self.rng.integers(len(pool)))] for _ in range(size)]
        if self.kind == "alltask":
            if size != len(pool):
                raise ValueError("alltask batch size must equal pool size")
            return list(pool)
        return [self._select_one(pool) for _ in range(size)]

    def record(self, task, auc_before, auc_after):
        obs = float(auc_after) - float(auc_before)
        rew = obs - self.last.get(task.id, 0.0)
        if self.kind == "cl":
            self._push(task.id, rew)
        elif self.kind == "mab":
            self._push(task.id, obs)
        self.last[task.id] = obs
        return obs, rew

    def _push(self, task_id, value):
        buf = self.buffers.setdefault(task_id, [])
        buf.append(value)
        if len(buf) > self.capacity:
            del buf[0]


def reference_meta_train(arch, config, data, pool):
    """Meta-training the slow way: one episode at a time through plain 2-D calls.

    Keeps the library's draw order (``SeedSequence(seed).spawn(3)`` for the
    init, episode and sampler streams; episodes drawn in batch order) and its
    float order (per-episode meta-gradients summed into a zero vector in batch
    order), but shares no meta-learning code with it; the sampler is
    ``ReferenceSampler``.  Returns the final params and, per update, the tuple
    (tasks, auc_before, auc_after, observations, rewards, grad_norm).
    """
    from curmeta import nets
    from curmeta.metrics import compute_auc
    from curmeta.tasks import sample_episode

    init_ss, episode_ss, sampler_ss = np.random.SeedSequence(config.seed).spawn(3)
    params = nets.init_params(arch, np.random.default_rng(init_ss))
    episode_rng = np.random.default_rng(episode_ss)
    sampler = ReferenceSampler(config.sampler.value, np.random.default_rng(sampler_ss))
    alpha = config.adaptation_rate

    def query_auc(p, ep):
        probs = nets.softmax(nets.forward(arch, p, ep.query.inputs))[:, 1]
        return compute_auc(probs, ep.query.labels)

    rows = []
    for _ in range(config.meta_updates):
        tasks = sampler.select_batch(pool, config.meta_batch_size)
        episodes = [
            sample_episode(t, data.train, config.n_tr, config.n_val, episode_rng) for t in tasks
        ]
        total = np.zeros_like(params)
        before, after = [], []
        for ep in episodes:
            trajectory = [params.copy()]
            for _ in range(config.inner_steps):
                theta = trajectory[-1]
                trajectory.append(theta - alpha * nets.grad(arch, theta, ep.support))
            v = nets.grad(arch, trajectory[-1], ep.query)
            if config.gradient_mode.value == "second":
                for theta in reversed(trajectory[:-1]):
                    tr = nets.trace(arch, theta, ep.support)
                    v = v - alpha * nets.hessian_vector_product(tr, v)
            total += v
            before.append(query_auc(params, ep))
            after.append(query_auc(trajectory[-1], ep))
        params = params - config.meta_rate * total
        outcomes = [sampler.record(t, b, a) for t, b, a in zip(tasks, before, after)]
        rows.append(
            (
                tuple(t.id for t in tasks),
                tuple(before),
                tuple(after),
                tuple(obs for obs, _ in outcomes),
                tuple(rew for _, rew in outcomes),
                float(np.linalg.norm(total)),
            )
        )
    return params, rows


def reference_hvp(arch, params, batch, v):
    """H @ v of the batch cross-entropy at 1-D ``params``, forward pass included.

    The library's 2-D ``hessian_vector_product`` as it was before it took a
    trace, kept operation for operation so that the traced one must match
    it bit for bit.
    """
    from curmeta import nets

    layers = arch.unpack(params)
    vlayers = arch.unpack(v)
    relu = arch.activation == "relu"
    acts, zs, a = [batch.inputs], [], batch.inputs
    for i, (w, b) in enumerate(layers):
        zs.append(a @ w + b)
        if i < len(layers) - 1:
            a = np.maximum(zs[-1], 0.0) if relu else np.tanh(zs[-1])
            acts.append(a)
    derivs = [z > 0.0 if relu else 1.0 - a * a for z, a in zip(zs, acts[1:])]

    r_acts = [None]
    rz = acts[0] @ vlayers[0][0] + vlayers[0][1]
    for i in range(1, len(layers)):
        r_acts.append(derivs[i - 1] * rz)
        rz = r_acts[i] @ layers[i][0] + acts[i] @ vlayers[i][0] + vlayers[i][1]

    p = nets.softmax(zs[-1])
    rp = p * (rz - (p * rz).sum(axis=1, keepdims=True))
    n = batch.inputs.shape[0]
    delta = (p - (batch.labels[:, None] == np.arange(p.shape[1]))) / n
    r_delta = rp / n

    hv = []
    for i in range(len(layers) - 1, 0, -1):
        hv.append(r_delta.sum(axis=0))
        hv.append((r_acts[i].T @ delta + acts[i].T @ r_delta).ravel())
        w, vw, d = layers[i][0], vlayers[i][0], derivs[i - 1]
        new_r_delta = (r_delta @ w.T + delta @ vw.T) * d
        if i > 1 or not relu:
            s = delta @ w.T
            if not relu:
                new_r_delta = new_r_delta + s * (-2.0 * acts[i] * r_acts[i])
            if i > 1:
                delta = s * d
        r_delta = new_r_delta
    hv.append(r_delta.sum(axis=0))
    hv.append((acts[0].T @ r_delta).ravel())
    return np.concatenate(hv[::-1])


def reference_backward(tr):
    """The gradient over a trace as the library computed it before it wrote
    into a bound buffer: per-layer arrays, concatenated, kept operation for
    operation so that the buffered one must match it bit for bit."""
    delta = tr.delta
    flat = delta.shape[:-2] + (-1,)
    grads = []  # per layer gb then gw, output layer first
    for i in range(len(tr.weights) - 1, -1, -1):
        grads.append(delta.sum(axis=-2))
        grads.append((tr.acts[i].swapaxes(-1, -2) @ delta).reshape(flat))
        if i > 0:
            delta = (delta @ tr.weights[i].swapaxes(-1, -2)) * tr.derivs[i - 1]
    return np.concatenate(grads[::-1], axis=-1)


def reference_fine_tune(arch, params, train, val, config, seed):
    """Fine-tuning the slow way: one model, plain 2-D calls, a gathered batch per step.

    Keeps the library's draw order (one ``permutation`` of the mapped training
    split per epoch) and its snapshot rule (strictly higher validation AUC,
    epoch 0 included).  Returns the best params, or raises FloatingPointError
    when they go non-finite.
    """
    from curmeta import nets
    from curmeta.metrics import compute_auc

    def val_auc(p):
        return compute_auc(nets.softmax(nets.forward(arch, p, val.inputs))[:, 1], val.labels)

    rng = np.random.default_rng(seed)
    params = params.copy()
    best_params, best_auc = params.copy(), val_auc(params)
    for _ in range(config.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            idx = order[start : start + config.batch_size]
            mini = nets.Batch(train.inputs[idx], train.labels[idx])
            params = params - config.learning_rate * nets.grad(arch, params, mini)
        if not np.all(np.isfinite(params)):
            raise FloatingPointError("non-finite parameters")
        auc = val_auc(params)
        if auc > best_auc:
            best_auc, best_params = auc, params.copy()
    return best_params
