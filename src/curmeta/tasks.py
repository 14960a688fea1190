"""The five-task taxonomy over a synthetic three-class source, plus episode sampling.

Source samples are Gaussian class-conditional feature vectors.  Class 0 plays
the "background" role; classes 1 and 2 are deliberately placed close to each
other (centre distance 1 versus 3 to class 0), so the tasks that
separate class 1 from class 2 are genuinely harder than the rest.  Subjects
own a fixed number of samples (default 2) sharing one subject_id, and the
train/validation/test split is made at the subject level with no overlap.

Each split is held as three arrays (``Samples``): features (n, d), classes
(n,) and subject ids (n,).

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

from .nets import Batch, _trusted

SPLIT_WEIGHTS = (45, 13, 59)  # train : validation : test subject proportions
MIN_SUBJECTS_PER_SPLIT = 2


def check_fields(config, reals=None, integers=None):
    """Check the {name: least} fields of ``config``: ``reals`` are finite numbers and
    ``integers`` ints, and each is at least its least value (None: no bound)."""
    reals, integers = reals or {}, integers or {}
    for name in reals:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    for name in integers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, least in {**reals, **integers}.items():
        value = getattr(config, name)
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")


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
        # per-class lookups: included[classes] and positive[classes] map a split's classes
        object.__setattr__(self, "_included", np.isin(np.arange(3), list(self.included_classes)))
        object.__setattr__(self, "_positive", np.isin(np.arange(3), list(self.positive_classes)))


K1 = TaskDefinition("K1", frozenset({0, 1, 2}), frozenset({1, 2}))
K2 = TaskDefinition("K2", frozenset({0, 2}), frozenset({2}))
K3 = TaskDefinition("K3", frozenset({0, 1}), frozenset({1}))
K4 = TaskDefinition("K4", frozenset({1, 2}), frozenset({2}))
K5 = TaskDefinition("K5", frozenset({0, 1, 2}), frozenset({2}))
TASKS = (K1, K2, K3, K4, K5)
TASK_BY_ID = {t.id: t for t in TASKS}


def _integer_array(values, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Samples:
    """A split as arrays: features (n, d) float64, classes (n,) and subjects (n,) int64.

    ``len`` counts samples and a slice is a ``Samples``.  The arrays are
    read-only copies, so the read-only per-task views that ``sample_episode``
    and ``map_labels`` cache on the instance never go stale.
    """

    features: np.ndarray
    classes: np.ndarray
    subjects: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        classes = _integer_array(self.classes, "classes")
        subjects = _integer_array(self.subjects, "subjects")
        if features.ndim != 2:
            raise ValueError(f"features must be (n, d), got shape {features.shape}")
        n = features.shape[0]
        if classes.shape != (n,) or subjects.shape != (n,):
            raise ValueError(
                f"classes {classes.shape} and subjects {subjects.shape} must be ({n},) "
                f"to match features of shape {features.shape}"
            )
        bad = (classes < 0) | (classes > 2)
        if bad.any():
            raise ValueError(f"class must be 0, 1 or 2, got {classes[bad][0]}")
        if (subjects < 0).any():
            raise ValueError(f"subject_id must be >= 0, got {subjects[subjects < 0][0]}")
        for name, values in (("features", features), ("classes", classes), ("subjects", subjects)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_views", {})

    def _task_view(self, task: TaskDefinition) -> tuple:
        """The eligible samples of ``task`` in split order, computed once per task value.

        (features, positive mask, int labels, subject ids, subject ranks,
        positions of the positives, of the negatives); a subject's rank is its
        index among the distinct subject ids.
        """
        if task not in self._views:
            eligible = np.flatnonzero(task._included[self.classes])
            positive = task._positive[self.classes[eligible]]
            subjects = self.subjects[eligible]
            self._views[task] = view = (
                self.features[eligible],
                positive,
                positive.astype(np.int64),
                subjects,
                np.unique(subjects, return_inverse=True)[1],
                np.flatnonzero(positive),
                np.flatnonzero(~positive),
            )
            for values in view:  # shared by every caller, so never written
                values.flags.writeable = False
        return self._views[task]

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, key: slice) -> "Samples":
        if not isinstance(key, slice):
            raise TypeError(f"Samples take a slice, got {type(key).__name__}")
        return Samples(self.features[key], self.classes[key], self.subjects[key])


def default_means(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class means with ||mu1 - mu2|| = 1 and ||mu0 - mu1|| = ||mu0 - mu2|| = 3."""
    if dim < 2:
        raise ValueError("need dimension >= 2 for the class mean layout")
    mu0 = np.zeros(dim)
    mu1 = np.zeros(dim)
    mu2 = np.zeros(dim)
    mu0[1] = np.sqrt(9.0 - 0.25)
    mu1[0] = -0.5
    mu2[0] = 0.5
    return mu0, mu1, mu2


@dataclass(frozen=True)
class SourceConfig:
    """Gaussian mixture source: dimension and seed; the class means are ``default_means``."""

    dim: int = 16
    seed: int = 0

    def __post_init__(self):
        check_fields(self, integers={"dim": 2, "seed": 0})  # dim 2: the class mean layout


@dataclass(frozen=True)
class SplitDataset:
    """Subject-disjoint train/validation/test splits, each a ``Samples``."""

    train: Samples
    validation: Samples
    test: Samples

    def __post_init__(self):
        names = ("train", "validation", "test")
        splits = [getattr(self, name) for name in names]
        for name, split in zip(names, splits):
            if not isinstance(split, Samples):
                raise TypeError(f"the {name} split must be Samples, got {type(split).__name__}")
        widths = [split.features.shape[1] for split in splits]
        for name, width in zip(names[1:], widths[1:]):
            if width != widths[0]:
                raise ValueError(f"the {name} split has {width} features, the train split has {widths[0]}")
        for i in range(3):
            for j in range(i + 1, 3):
                mine = splits[i].subjects
                shared = mine[np.isin(mine, splits[j].subjects)]
                if shared.size:
                    raise ValueError(f"splits share subject ids {sorted(set(shared.tolist()))}")


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
    features from N(mean_class, I), the means of ``default_means``.
    Deterministic given config.seed.
    """
    if samples_per_subject < 1:
        raise ValueError(f"samples_per_subject must be >= 1, got {samples_per_subject}")
    counts = split_subject_counts(n_subjects)
    rng = np.random.default_rng(config.seed)
    means = default_means(config.dim)
    splits = []
    first_subject = 0
    for count in counts:
        n = count * samples_per_subject
        features = np.empty((n, config.dim))
        classes = np.empty(n, dtype=np.int64)
        for i in range(n):  # per sample: its class, then its features
            cls = int(rng.integers(3))
            classes[i] = cls
            features[i] = means[cls] + rng.standard_normal(config.dim)
        subjects = np.repeat(np.arange(first_subject, first_subject + count), samples_per_subject)
        splits.append(Samples(features, classes, subjects))
        first_subject += count
    return SplitDataset(*splits)


def map_labels(task: TaskDefinition, samples: Samples) -> Batch:
    """Binary batch for a task: drop excluded classes, label positives 1.

    Sample order is preserved; the arrays are the split's cached, read-only task view.
    """
    features, _, labels, *_ = samples._task_view(task)
    if not len(labels):
        raise ValueError(f"no samples left after mapping task {task.id}")
    return _trusted(Batch, features, labels)


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
    pool: Samples,
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
    # work in positions 0..n-1 of the eligible samples, in pool order
    features, positive, labels, subjects, rank, pos, neg = pool._task_view(task)
    n = len(positive)
    if n < n_tr + n_val or len(pos) == 0 or len(neg) == 0:
        raise PoolExhaustedError(
            f"pool exhausted for task {task.id}: {n} eligible samples "
            f"({len(pos)} positive, {len(neg)} negative), need {n_tr}+{n_val} with both labels"
        )

    # Each set draws one positive and one negative, then fills up uniformly
    # from the rest; masks stand for index sets, nonzero()[0] lists them sorted.
    # a[rng.integers(len(a))] draws the same stream as rng.choice(a).
    for _ in range(max_attempts):
        rest = np.ones(n, dtype=bool)
        rest[[pos[rng.integers(len(pos))], neg[rng.integers(len(neg))]]] = False
        fill = rng.choice(rest.nonzero()[0], size=n_tr - 2, replace=False)
        rest[fill] = False
        support_idx = (~rest).nonzero()[0]

        blocked = np.zeros(n, dtype=bool)  # by subject rank
        blocked[rank[support_idx]] = True
        candidates = ~blocked[rank]
        cand_pos = (candidates & positive).nonzero()[0]
        cand_neg = (candidates & ~positive).nonzero()[0]
        if np.count_nonzero(candidates) < n_val or len(cand_pos) == 0 or len(cand_neg) == 0:
            continue
        q_rest = candidates.copy()
        q_rest[[cand_pos[rng.integers(len(cand_pos))], cand_neg[rng.integers(len(cand_neg))]]] = False
        q_fill = rng.choice(q_rest.nonzero()[0], size=n_val - 2, replace=False)
        q_rest[q_fill] = False
        query_idx = (candidates & ~q_rest).nonzero()[0]

        return _trusted(  # subject-disjoint and two-label by construction
            Episode,
            task,
            _trusted(Batch, features[support_idx], labels[support_idx]),
            _trusted(Batch, features[query_idx], labels[query_idx]),
            frozenset(subjects[support_idx].tolist()),
            frozenset(subjects[query_idx].tolist()),
        )
    raise PoolExhaustedError(
        f"pool exhausted for task {task.id}: no subject-disjoint stratified draw "
        f"found in {max_attempts} attempts"
    )


def derive_stream(seed: int, worker: int) -> np.random.Generator:
    """Stream ``worker`` of run seed ``seed``: child ``3 + worker`` of ``SeedSequence(seed)``.
    A run's children are 0 init, 1 episodes, 2 sampler (``meta``), 4 fine-tuning
    (worker 1) and 5 the multi-task baseline (worker 2); no two pairs share one."""
    for name, value in (("seed", seed), ("worker", worker)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3 + worker,)))


# --- tabular text serialization -------------------------------------------------

def format_samples(samples: Samples) -> str:
    """Samples as TSV text: subject_id, class, then one column per feature."""
    header = "subject_id\tclass" + "".join(f"\tf{i}" for i in range(samples.features.shape[1]))
    lines = [header]
    for subject, cls, row in zip(
        samples.subjects.tolist(), samples.classes.tolist(), samples.features.tolist()
    ):
        feats = "\t".join(f"{x:.17g}" for x in row)
        lines.append(f"{subject}\t{cls}\t{feats}")
    return "\n".join(lines) + "\n"


def _cell(text: str, column: str, parse, valid, expected: str):
    """One parsed TSV cell; a value ``parse`` rejects or ``valid`` fails names the column."""
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(f"{column} must be {expected}, got {text!r}")
    return value


def read_samples(path) -> Samples:
    """Read a sample table; a bad row fails as ``path:line: <column> ...``."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("subject_id\tclass"):
        raise ValueError(f"{path}: not a sample table (bad header)")
    columns = lines[0].split("\t")
    subjects, classes, features = [], [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"{path}:{ln}: expected subject_id, class and features")
        if len(parts) != len(columns):
            raise ValueError(f"{path}:{ln}: {len(parts)} fields, the header has {len(columns)}")
        try:
            subjects.append(_cell(parts[0], "subject_id", int, lambda v: v >= 0, "an integer >= 0"))
            classes.append(_cell(parts[1], "class", int, lambda v: v in (0, 1, 2), "0, 1 or 2"))
            features.append(
                [
                    _cell(text, column, float, math.isfinite, "a finite number")
                    for column, text in zip(columns[2:], parts[2:])
                ]
            )
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: {e}") from None
    return Samples(
        np.array(features, dtype=np.float64).reshape(len(features), len(columns) - 2),
        np.array(classes, dtype=np.int64),
        np.array(subjects, dtype=np.int64),
    )


SPLIT_FILES = {"train": "train.tsv", "validation": "validation.tsv", "test": "test.tsv"}


def format_split_dataset(data: SplitDataset) -> dict[str, str]:
    """The TSV text of each split, keyed by split name."""
    return {name: format_samples(getattr(data, name)) for name in SPLIT_FILES}


def write_split_dataset(directory, texts: dict[str, str]) -> dict[str, Path]:
    """Write each split's TSV, as ``format_split_dataset`` gives it, into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, filename in SPLIT_FILES.items():
        p = directory / filename
        p.write_text(texts[name])
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
