"""The five-task taxonomy over a synthetic three-class source, plus episode sampling.

Source samples are Gaussian class-conditional feature vectors.  Class 0 plays
the "background" role; classes 1 and 2 are deliberately placed close to each
other (default centre distance 1 versus 3 to class 0), so the tasks that
separate class 1 from class 2 are genuinely harder than the rest.  Subjects
own a fixed number of samples (default 2) sharing one subject_id, and the
train/validation/test split is made at the subject level with no overlap.

Datasets serialize to a tab-separated text format, one sample per row:

    subject_id <TAB> class <TAB> f0 <TAB> f1 <TAB> ...

with a header line; floats are written with 17 significant digits so a
round-trip is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nets import Batch

SPLIT_WEIGHTS = (45, 13, 59)  # train : validation : test subject proportions
MIN_SUBJECTS_PER_SPLIT = 2


def check_types(config, reals=(), integers=()):
    """Reject non-finite or non-numeric ``reals`` and ``integers`` that are not plain ints."""
    for name in reals:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    for name in integers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class PoolExhaustedError(RuntimeError):
    """Episode sampling could not find enough eligible, label-stratified samples."""


@dataclass(frozen=True)
class TaskDefinition:
    """A binary task: which source classes participate and which count as positive."""

    id: str
    included_classes: frozenset[int]
    positive_classes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "included_classes", frozenset(self.included_classes))
        object.__setattr__(self, "positive_classes", frozenset(self.positive_classes))
        if not self.included_classes <= {0, 1, 2}:
            raise ValueError(f"included classes must be within {{0,1,2}}, got {set(self.included_classes)}")
        if not self.positive_classes <= self.included_classes:
            raise ValueError("positive classes must be a subset of included classes")
        if not self.positive_classes or self.positive_classes == self.included_classes:
            raise ValueError("task needs at least one positive and one negative class")


K1 = TaskDefinition("K1", frozenset({0, 1, 2}), frozenset({1, 2}))
K2 = TaskDefinition("K2", frozenset({0, 2}), frozenset({2}))
K3 = TaskDefinition("K3", frozenset({0, 1}), frozenset({1}))
K4 = TaskDefinition("K4", frozenset({1, 2}), frozenset({2}))
K5 = TaskDefinition("K5", frozenset({0, 1, 2}), frozenset({2}))
TASKS = (K1, K2, K3, K4, K5)
TASK_BY_ID = {t.id: t for t in TASKS}


@dataclass(frozen=True)
class SourceSample:
    features: np.ndarray
    source_class: int
    subject_id: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(f"features must be a 1-D vector, got shape {features.shape}")
        if self.source_class not in (0, 1, 2):
            raise ValueError(f"class must be 0, 1 or 2, got {self.source_class}")
        if self.subject_id < 0:
            raise ValueError(f"subject_id must be >= 0, got {self.subject_id}")
        object.__setattr__(self, "features", features)


def default_means(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class means with ||mu1 - mu2|| = 1 and ||mu0 - mu1|| = ||mu0 - mu2|| = 3."""
    if dim < 2:
        raise ValueError("need dimension >= 2 for the default mean layout")
    mu0 = np.zeros(dim)
    mu1 = np.zeros(dim)
    mu2 = np.zeros(dim)
    mu0[1] = np.sqrt(9.0 - 0.25)
    mu1[0] = -0.5
    mu2[0] = 0.5
    return mu0, mu1, mu2


@dataclass(frozen=True)
class SourceConfig:
    """Gaussian mixture source: three class means, shared isotropic scale, seed."""

    dim: int = 16
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    mu2: np.ndarray | None = None
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_types(self, reals=("sigma",), integers=("dim", "seed"))
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        given = (self.mu0, self.mu1, self.mu2)
        defaults = default_means(self.dim) if any(m is None for m in given) else None
        means = []
        for i, mu in enumerate((self.mu0, self.mu1, self.mu2)):
            mu = np.asarray(mu, dtype=np.float64) if mu is not None else defaults[i]
            if mu.shape != (self.dim,):
                raise ValueError(f"mu{i} has shape {mu.shape}, expected ({self.dim},)")
            if not np.all(np.isfinite(mu)):
                raise ValueError(f"mu{i} must be finite")
            means.append(mu)
        for i in range(3):
            for j in range(i + 1, 3):
                if np.array_equal(means[i], means[j]):
                    raise ValueError(f"class means {i} and {j} coincide")
        object.__setattr__(self, "mu0", means[0])
        object.__setattr__(self, "mu1", means[1])
        object.__setattr__(self, "mu2", means[2])

    @property
    def means(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.mu0, self.mu1, self.mu2


@dataclass(frozen=True)
class SplitDataset:
    train: tuple[SourceSample, ...]
    validation: tuple[SourceSample, ...]
    test: tuple[SourceSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "validation", tuple(self.validation))
        object.__setattr__(self, "test", tuple(self.test))
        ids = [set(s.subject_id for s in split) for split in (self.train, self.validation, self.test)]
        for i in range(3):
            for j in range(i + 1, 3):
                shared = ids[i] & ids[j]
                if shared:
                    raise ValueError(f"splits share subject ids {sorted(shared)}")


def split_subject_counts(n_subjects: int) -> tuple[int, int, int]:
    """Apportion subjects to train/validation/test in 45:13:59 proportions.

    Largest-remainder rounding, then at least MIN_SUBJECTS_PER_SPLIT subjects
    are guaranteed per split by borrowing from the largest split.
    """
    if n_subjects < 3 * MIN_SUBJECTS_PER_SPLIT:
        raise ValueError(f"need at least {3 * MIN_SUBJECTS_PER_SPLIT} subjects, got {n_subjects}")
    total = sum(SPLIT_WEIGHTS)
    quotas = [n_subjects * w / total for w in SPLIT_WEIGHTS]
    counts = [int(np.floor(q)) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    for _ in range(n_subjects - sum(counts)):
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0
    while min(counts) < MIN_SUBJECTS_PER_SPLIT:
        counts[int(np.argmax(counts))] -= 1
        counts[int(np.argmin(counts))] += 1
    return tuple(counts)


def generate_source(
    config: SourceConfig, n_subjects: int, samples_per_subject: int = 2
) -> SplitDataset:
    """Draw a subject-disjoint three-way split of Gaussian class-conditional samples.

    Each sample independently draws a class uniformly from {0, 1, 2} and
    features from N(mean_class, sigma^2 I).  Deterministic given config.seed.
    """
    if samples_per_subject < 1:
        raise ValueError(f"samples_per_subject must be >= 1, got {samples_per_subject}")
    counts = split_subject_counts(n_subjects)
    rng = np.random.default_rng(config.seed)
    means = config.means
    splits = []
    subject = 0
    for count in counts:
        samples = []
        for _ in range(count):
            for _ in range(samples_per_subject):
                cls = int(rng.integers(3))
                features = means[cls] + config.sigma * rng.standard_normal(config.dim)
                samples.append(SourceSample(features, cls, subject))
            subject += 1
        splits.append(tuple(samples))
    return SplitDataset(*splits)


def map_labels(task: TaskDefinition, samples) -> Batch:
    """Binary batch for a task: drop excluded classes, label positives 1.

    Sample order is preserved.
    """
    kept = [s for s in samples if s.source_class in task.included_classes]
    if not kept:
        raise ValueError(f"no samples left after mapping task {task.id}")
    inputs = np.stack([s.features for s in kept])
    labels = np.array([int(s.source_class in task.positive_classes) for s in kept])
    return Batch(inputs, labels)


@dataclass(frozen=True)
class Episode:
    """One task's support/query draw with subject-level disjointness."""

    task: TaskDefinition
    support: Batch
    query: Batch
    support_subjects: frozenset[int] = field(default_factory=frozenset)
    query_subjects: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.support_subjects & self.query_subjects:
            raise ValueError("support and query share subjects")
        for name, batch in (("support", self.support), ("query", self.query)):
            if len(set(batch.labels.tolist())) < 2:
                raise ValueError(f"{name} set must contain both labels")


def sample_episode(
    task: TaskDefinition,
    pool,
    n_tr: int,
    n_val: int,
    rng: np.random.Generator,
    max_attempts: int = 200,
) -> Episode:
    """Stratified support/query draw of exact sizes with disjoint subjects.

    Both sets are guaranteed to contain both labels (one positive and one
    negative are drawn first, the rest uniformly).  Raises PoolExhaustedError
    when the eligible pool cannot satisfy the sizes or stratification.
    """
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
        return Episode(
            task,
            support,
            query,
            frozenset(support_subj),
            frozenset(int(subjects[i]) for i in query_idx),
        )
    raise PoolExhaustedError(
        f"pool exhausted for task {task.id}: no subject-disjoint stratified draw "
        f"found in {max_attempts} attempts"
    )


def derive_stream(seed: int, worker: int, stride: int = 1000) -> np.random.Generator:
    """Independent RNG stream for a worker: master seed plus a fixed stride."""
    return np.random.default_rng(seed + stride * worker)


# --- tabular text serialization -------------------------------------------------

def write_samples(path, samples) -> None:
    """Write samples as TSV: subject_id, class, then one column per feature."""
    samples = list(samples)
    path = Path(path)
    if samples:
        dim = samples[0].features.size
    else:
        dim = 0
    header = "subject_id\tclass" + "".join(f"\tf{i}" for i in range(dim))
    lines = [header]
    for s in samples:
        if s.features.size != dim:
            raise ValueError("all samples must share one feature dimension")
        feats = "\t".join(f"{x:.17g}" for x in s.features)
        lines.append(f"{s.subject_id}\t{s.source_class}\t{feats}")
    path.write_text("\n".join(lines) + "\n")


def read_samples(path) -> tuple[SourceSample, ...]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("subject_id\tclass"):
        raise ValueError(f"{path}: not a sample table (bad header)")
    width = len(lines[0].split("\t"))
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"{path}:{ln}: expected subject_id, class and features")
        if len(parts) != width:
            raise ValueError(f"{path}:{ln}: {len(parts)} fields, the header has {width}")
        out.append(
            SourceSample(
                np.array([float(x) for x in parts[2:]]),
                int(parts[1]),
                int(parts[0]),
            )
        )
    return tuple(out)


SPLIT_FILES = {"train": "train.tsv", "validation": "validation.tsv", "test": "test.tsv"}


def write_split_dataset(directory, data: SplitDataset) -> dict[str, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, filename in SPLIT_FILES.items():
        p = directory / filename
        write_samples(p, getattr(data, name))
        paths[name] = p
    return paths


def read_split_dataset(directory) -> SplitDataset:
    directory = Path(directory)
    data = SplitDataset(
        *(read_samples(directory / filename) for filename in SPLIT_FILES.values())
    )
    if not data.train:
        raise ValueError(f"{directory / SPLIT_FILES['train']}: the train split has no samples")
    return data
