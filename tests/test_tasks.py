"""Tests for the task taxonomy, Gaussian source and episode sampling."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curmeta.nets import Batch
from curmeta.tasks import (
    K1,
    K2,
    K3,
    K4,
    K5,
    TASK_BY_ID,
    TASKS,
    Episode,
    PoolExhaustedError,
    Samples,
    SourceConfig,
    SplitDataset,
    TaskDefinition,
    default_means,
    derive_stream,
    format_samples,
    format_split_dataset,
    generate_source,
    map_labels,
    read_samples,
    read_split_dataset,
    sample_episode,
    split_subject_counts,
    write_split_dataset,
)
from oracles import reference_sample_episode, source_rows


@pytest.fixture(scope="module")
def small_data():
    return generate_source(SourceConfig(dim=4, seed=3), n_subjects=30)


# ------------------------------------------------------------------ taxonomy


def test_task_taxonomy_definitions():
    assert K1.included_classes == {0, 1, 2} and K1.positive_classes == {1, 2}
    assert K2.included_classes == {0, 2} and K2.positive_classes == {2}
    assert K3.included_classes == {0, 1} and K3.positive_classes == {1}
    assert K4.included_classes == {1, 2} and K4.positive_classes == {2}
    assert K5.included_classes == {0, 1, 2} and K5.positive_classes == {2}


def test_task_registry():
    assert tuple(t.id for t in TASKS) == ("K1", "K2", "K3", "K4", "K5")
    assert TASK_BY_ID["K3"] is K3
    assert len(TASK_BY_ID) == 5


def test_task_definition_validation():
    from curmeta.tasks import TaskDefinition

    with pytest.raises(ValueError):
        TaskDefinition("bad", {0, 3}, {0})
    with pytest.raises(ValueError):
        TaskDefinition("bad", {0, 1}, {2})
    with pytest.raises(ValueError):
        TaskDefinition("bad", {0, 1}, {0, 1})  # no negative class left
    with pytest.raises(ValueError):
        TaskDefinition("bad", {0, 1}, set())


# ------------------------------------------------------------------- source


def test_default_means_distances():
    mu0, mu1, mu2 = default_means(16)
    assert np.linalg.norm(mu1 - mu2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(mu0 - mu1) == pytest.approx(3.0, abs=1e-12)
    assert np.linalg.norm(mu0 - mu2) == pytest.approx(3.0, abs=1e-12)


def test_default_means_requires_dim_two():
    with pytest.raises(ValueError):
        default_means(1)


def test_source_config_validation():
    # the class mean layout needs two dimensions; it is rejected at construction
    with pytest.raises(ValueError, match="^dim must be >= 2"):
        SourceConfig(dim=1)
    assert SourceConfig(dim=2).dim == 2


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"dim": 0}, "dim"),
        ({"dim": None}, "dim"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "3"}, "seed"),
        ({"dim": 4.0}, "dim"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
)
def test_source_config_rejects_bad_fields_naming_them(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SourceConfig(**{"dim": 4, **kwargs})


def test_split_subject_counts_reference_total():
    assert split_subject_counts(117) == (45, 13, 59)


def test_split_subject_counts_small_total():
    assert split_subject_counts(6) == (2, 2, 2)
    with pytest.raises(ValueError):
        split_subject_counts(5)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(6, 500))
def test_split_subject_counts_partition(n):
    counts = split_subject_counts(n)
    assert sum(counts) == n
    assert min(counts) >= 2
    # test split dominates at realistic sizes
    if n >= 20:
        assert counts[2] == max(counts)


def test_generate_source_structure(small_data):
    counts = split_subject_counts(30)
    splits = (small_data.train, small_data.validation, small_data.test)
    for split, count in zip(splits, counts):
        assert len(split) == 2 * count
        assert len(set(split.subjects.tolist())) == count
        assert split.features.shape == (2 * count, 4)
        assert set(split.classes.tolist()) <= {0, 1, 2}
    all_ids = np.concatenate([split.subjects for split in splits])
    assert sorted(set(all_ids.tolist())) == list(range(30))


def test_generate_source_deterministic():
    a = generate_source(SourceConfig(dim=3, seed=9), n_subjects=12)
    b = generate_source(SourceConfig(dim=3, seed=9), n_subjects=12)
    for name in ("train", "validation", "test"):
        for field in ("features", "classes", "subjects"):
            assert np.array_equal(getattr(getattr(a, name), field), getattr(getattr(b, name), field))
    c = generate_source(SourceConfig(dim=3, seed=10), n_subjects=12)
    assert not (a.train.features == c.train.features).all(axis=1).any()


def test_generate_source_class_means_recoverable():
    cfg = SourceConfig(dim=6, seed=0)
    data = generate_source(cfg, n_subjects=400)
    splits = (data.train, data.validation, data.test)
    features = np.concatenate([split.features for split in splits])
    classes = np.concatenate([split.classes for split in splits])
    for cls, mu in enumerate(default_means(cfg.dim)):
        feats = features[classes == cls]
        # n ~ 270 per class, so the sample mean sits within ~4 sigma/sqrt(n)
        assert np.linalg.norm(feats.mean(axis=0) - mu) < 0.6


def test_generate_source_bytes_are_pinned():
    # the default source's TSV texts, sha256 measured with numpy 2.4
    texts = format_split_dataset(generate_source(SourceConfig(seed=0), 117))
    assert {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()} == {
        "train": "2ce3cea8397fc7965c0b076827b6c1214fab8ec60ab2f1f5dff5a44aa1bc815d",
        "validation": "097dab132d32c7263518c70412bee82d13d08f9b0b9834323978a5e92808bf80",
        "test": "fa33bac85e78ffb866874c8df2d62dcb6cdfcb6d49b433086276d5c963b2f66e",
    }


def test_generate_source_samples_per_subject():
    data = generate_source(SourceConfig(dim=3, seed=1), n_subjects=9, samples_per_subject=5)
    assert len(data.train) == 5 * split_subject_counts(9)[0]
    with pytest.raises(ValueError):
        generate_source(SourceConfig(dim=3, seed=1), n_subjects=9, samples_per_subject=0)


def subjects(*ids):
    """Samples of class 0 with two zero features, one per subject id."""
    return Samples(np.zeros((len(ids), 2)), [0] * len(ids), ids)


def test_split_dataset_rejects_shared_subjects():
    with pytest.raises(ValueError):
        SplitDataset(subjects(0, 1), subjects(1), subjects(2))


@pytest.mark.parametrize("name", ["train", "validation", "test"])
def test_split_dataset_takes_only_samples_naming_the_split(name):
    splits = {"train": subjects(0), "validation": subjects(1), "test": subjects(2)}
    splits[name] = source_rows(splits[name])
    with pytest.raises(TypeError, match=f"the {name} split must be Samples, got list"):
        SplitDataset(**splits)




@pytest.mark.parametrize(
    "features, classes, subjects, match",
    [
        (np.zeros(3), [0, 1, 2], [0, 1, 2], r"features must be \(n, d\)"),
        (np.zeros((3, 2, 1)), [0, 1, 2], [0, 1, 2], r"features must be \(n, d\)"),
        (np.zeros((3, 2)), [0, 1], [0, 1, 2], "classes"),
        (np.zeros((3, 2)), [0, 1, 2], [[0, 1, 2]], "subjects"),
        (np.zeros((3, 2)), [0, 3, 2], [0, 1, 2], "class must be 0, 1 or 2, got 3"),
        (np.zeros((3, 2)), [0, -1, 2], [0, 1, 2], "class must be 0, 1 or 2, got -1"),
        (np.zeros((3, 2)), [0.0, 1.5, 2.0], [0, 1, 2], "classes must be integers"),
        (np.zeros((3, 2)), [0, 1, 2], [0, -4, 2], "subject_id must be >= 0, got -4"),
        (np.zeros((3, 2)), [0, 1, 2], ["a", "b", "c"], "subjects must be integers"),
    ],
)
def test_samples_rejects_bad_arrays(features, classes, subjects, match):
    with pytest.raises(ValueError, match=match):
        Samples(features, classes, subjects)


def test_samples_have_a_length_and_slices(small_data):
    train = small_data.train
    assert train.features.shape == (len(train), 4)
    assert train.classes.dtype == train.subjects.dtype == np.int64
    head = train[:5]
    assert isinstance(head, Samples) and len(head) == 5
    for name in ("features", "classes", "subjects"):
        assert np.array_equal(getattr(head, name), getattr(train, name)[:5])
    # a split is arrays, not rows: no integer index, so no iteration either
    with pytest.raises(TypeError, match="Samples take a slice, got int"):
        train[3]
    with pytest.raises(TypeError):
        list(train)


# --------------------------------------------------------------- map_labels


def test_map_labels_matches_loop_oracle(small_data):
    for task in TASKS:
        batch = map_labels(task, small_data.train)
        kept = [s for s in source_rows(small_data.train) if s.source_class in task.included_classes]
        assert len(batch) == len(kept)
        for row, sample in zip(range(len(kept)), kept):
            assert np.array_equal(batch.inputs[row], sample.features)
            assert batch.labels[row] == int(sample.source_class in task.positive_classes)


def test_map_labels_excludes_classes(small_data):
    batch = map_labels(K2, small_data.train)  # K2 keeps only classes 0 and 2
    n_kept = np.count_nonzero(small_data.train.classes != 1)
    assert len(batch) == n_kept


def test_map_labels_empty_raises():
    samples = Samples(np.zeros((1, 2)), [1], [0])
    with pytest.raises(ValueError, match="no samples left after mapping task K2"):
        map_labels(K2, samples)  # class 1 is excluded from K2


def test_map_labels_shares_the_read_only_task_view(small_data):
    first, again = map_labels(K5, small_data.train), map_labels(K5, small_data.train)
    assert first.inputs is again.inputs and first.labels is again.labels
    assert first.labels.dtype == np.int64
    for values in (first.inputs, first.labels):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0


# ------------------------------------------------------------------ episodes


def test_sample_episode_contract(small_data):
    rng = np.random.default_rng(0)
    for task in TASKS:
        ep = sample_episode(task, small_data.train, n_tr=4, n_val=4, rng=rng)
        assert ep.task is task
        assert len(ep.support) == 4 and len(ep.query) == 4
        assert set(ep.support.labels.tolist()) == {0, 1}
        assert set(ep.query.labels.tolist()) == {0, 1}
        assert not ep.support_subjects & ep.query_subjects


def test_sample_episode_deterministic(small_data):
    a = sample_episode(K1, small_data.train, 4, 4, np.random.default_rng(7))
    b = sample_episode(K1, small_data.train, 4, 4, np.random.default_rng(7))
    assert np.array_equal(a.support.inputs, b.support.inputs)
    assert np.array_equal(a.query.inputs, b.query.inputs)
    assert np.array_equal(a.support.labels, b.support.labels)


def test_sample_episode_respects_task_classes(small_data):
    # every drawn feature vector must come from an included class
    by_feature = {s.features.tobytes(): s.source_class for s in source_rows(small_data.train)}
    rng = np.random.default_rng(5)
    for _ in range(20):
        ep = sample_episode(K4, small_data.train, 4, 4, rng)
        for row in np.vstack([ep.support.inputs, ep.query.inputs]):
            assert by_feature[row.tobytes()] in K4.included_classes


def test_sample_episode_rejects_tiny_sizes(small_data):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_episode(K1, small_data.train, 1, 4, rng)
    with pytest.raises(ValueError):
        sample_episode(K1, small_data.train, 4, 1, rng)


def test_sample_episode_pool_exhausted():
    rng = np.random.default_rng(0)
    pool = Samples(np.arange(4.0)[:, None] + np.zeros(2), np.arange(4) % 2, np.arange(4))
    with pytest.raises(PoolExhaustedError):  # only 4 samples, need 8
        sample_episode(K3, pool, 4, 4, rng)
    # enough samples but one subject everywhere: disjointness is impossible
    pool = Samples(np.arange(20.0)[:, None] + np.zeros(2), np.arange(20) % 2, np.zeros(20, int))
    with pytest.raises(PoolExhaustedError):
        sample_episode(K3, pool, 4, 4, rng)


def test_sample_episode_never_overlaps_subjects(small_data):
    # stress the disjointness invariant over ten thousand draws
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        ep = sample_episode(K1, small_data.train, 4, 4, rng)
        assert not ep.support_subjects & ep.query_subjects


SIZES = ((4, 4), (2, 2), (6, 3), (3, 6))
# what the draws below meet besides episodes: a pool too small for the sizes,
# and subject-disjoint draws that fail every attempt
EXHAUSTION = {(0, 1): {"size"}, (0, 2): {"attempts"}, (1, 1): {"size", "attempts"}}


@pytest.mark.parametrize("samples_per_subject", [1, 2, 5])
@pytest.mark.parametrize("data_seed", [0, 1])
def test_sample_episode_equals_object_list_reference(data_seed, samples_per_subject):
    # a small source, so draws retry and the pool runs out as well
    data = generate_source(SourceConfig(dim=3, seed=data_seed), 24, samples_per_subject)
    rows = source_rows(data.train)
    rng, ref_rng = np.random.default_rng(data_seed), np.random.default_rng(data_seed)
    outcomes = set()
    for i in range(2000):
        task, (n_tr, n_val) = TASKS[i % 5], SIZES[i // 5 % 4]
        try:
            ref = reference_sample_episode(task, rows, n_tr, n_val, ref_rng, max_attempts=20)
        except PoolExhaustedError as e:
            with pytest.raises(PoolExhaustedError) as got:
                sample_episode(task, data.train, n_tr, n_val, rng, max_attempts=20)
            assert str(got.value) == str(e)
            outcomes.add("attempts" if "attempts" in str(e) else "size")
        else:
            ep = sample_episode(task, data.train, n_tr, n_val, rng, max_attempts=20)
            assert ep.task is task
            for got, want in ((ep.support, ref.support), (ep.query, ref.query)):
                assert np.array_equal(got.inputs, want.inputs)
                assert np.array_equal(got.labels, want.labels)
            assert ep.support_subjects == ref.support_subjects
            assert ep.query_subjects == ref.query_subjects
            outcomes.add("episode")
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert outcomes == {"episode"} | EXHAUSTION.get((data_seed, samples_per_subject), set())


def test_sampled_episodes_pass_the_public_constructors():
    # sample_episode builds its batches and episode unchecked; every one of
    # them must be what the strict public constructors accept as they are
    data = generate_source(SourceConfig(seed=4), 117)
    rng = np.random.default_rng(4)
    for i in range(2000 * len(TASKS)):
        task, (n_tr, n_val) = TASKS[i % 5], SIZES[i // 5 % 4]
        ep = sample_episode(task, data.train, n_tr, n_val, rng)
        rebuilt = [Batch(b.inputs, b.labels) for b in (ep.support, ep.query)]
        Episode(task, *rebuilt, ep.support_subjects, ep.query_subjects)
        for got, want in zip((ep.support, ep.query), rebuilt):
            assert got.inputs.dtype == want.inputs.dtype and got.labels.dtype == want.labels.dtype
            assert np.array_equal(got.inputs, want.inputs)
            assert np.array_equal(got.labels, want.labels)


def test_samples_arrays_are_read_only_copies(small_data):
    for name in ("features", "classes", "subjects"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(small_data.train, name)[0] = 1
    classes = np.array([0, 1, 2])
    samples = Samples(np.zeros((3, 2)), classes, [0, 1, 2])
    classes[0] = 2
    assert samples.classes.tolist() == [0, 1, 2]


def test_task_views_are_cached_per_task_value():
    # a user task that reuses the id "K1" with other classes gets its own view
    data = generate_source(SourceConfig(dim=3, seed=5), 40)
    for task in (K5, K1):
        sample_episode(task, data.train, 4, 4, np.random.default_rng(0))
    custom = TaskDefinition("K1", {0, 1}, {1})
    rows = source_rows(data.train)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(200):
        ep = sample_episode(custom, data.train, 4, 4, rng)
        ref = reference_sample_episode(custom, rows, 4, 4, ref_rng)
        for got, want in ((ep.support, ref.support), (ep.query, ref.query)):
            assert np.array_equal(got.inputs, want.inputs)
            assert np.array_equal(got.labels, want.labels)
        assert (ep.support_subjects, ep.query_subjects) == (ref.support_subjects, ref.query_subjects)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(data.train._views) == 3


def test_episode_validates_disjointness(small_data):
    ep = sample_episode(K1, small_data.train, 4, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        Episode(K1, ep.support, ep.query, frozenset({1, 2}), frozenset({2, 3}))
    one_label = ep.support.inputs, np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        Episode(K1, Batch(*one_label), ep.query, frozenset({1}), frozenset({2}))


# ---------------------------------------------------------------- streams


def test_derive_stream_deterministic_and_distinct():
    a = derive_stream(7, 1).standard_normal(4)
    b = derive_stream(7, 1).standard_normal(4)
    c = derive_stream(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_stream_rejects_negative_seeds():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1000"):
        derive_stream(-1000, 1)
    # worker -1 would be child 2 of the run seed, meta-training's sampler stream
    with pytest.raises(ValueError, match="worker must be >= 0, got -1"):
        derive_stream(0, -1)


@pytest.mark.parametrize("seed, worker", [(0, 0), (0, 1), (7, 2), (1000, 0), (123456, 3)])
def test_derive_stream_is_child_3_plus_worker_of_the_run_seed(seed, worker):
    child = np.random.SeedSequence(seed).spawn(4 + worker)[3 + worker]
    expected = np.random.default_rng(child).bit_generator.state
    assert derive_stream(seed, worker).bit_generator.state == expected


def test_every_stream_of_every_run_seed_is_distinct():
    # children 0-2 are meta-training's init, episode and sampler streams
    firsts = {}
    for seed in (0, 1, 999, 1000, 2000):
        children = np.random.SeedSequence(seed).spawn(3)
        streams = [np.random.default_rng(c) for c in children]
        streams += [derive_stream(seed, w) for w in range(4)]
        for child, rng in enumerate(streams):
            firsts[(seed, child)] = tuple(rng.integers(1 << 62, size=2).tolist())
    assert len(set(firsts.values())) == len(firsts) == 35


# -------------------------------------------------------------------- files


def test_samples_tsv_round_trip(tmp_path, small_data):
    path = tmp_path / "samples.tsv"
    path.write_text(format_samples(small_data.train))
    back = read_samples(path)
    assert len(back) == len(small_data.train)
    assert np.array_equal(back.features, small_data.train.features)  # bit-exact via %.17g
    assert np.array_equal(back.classes, small_data.train.classes)
    assert np.array_equal(back.subjects, small_data.train.subjects)


def test_split_dataset_round_trip(tmp_path, small_data):
    paths = write_split_dataset(tmp_path, format_split_dataset(small_data))
    assert set(paths) == {"train", "validation", "test"}
    assert all(p.exists() for p in paths.values())
    back = read_split_dataset(tmp_path)
    for orig_split, rt_split in zip(
        (small_data.train, small_data.validation, small_data.test),
        (back.train, back.validation, back.test),
    ):
        assert len(orig_split) == len(rt_split)
        assert np.array_equal(orig_split.features, rt_split.features)
        assert np.array_equal(orig_split.subjects, rt_split.subjects)


@pytest.mark.parametrize("edit", ["drop_feature", "extra_field"])
def test_read_samples_rejects_row_of_wrong_width(tmp_path, small_data, edit):
    path = tmp_path / "samples.tsv"
    path.write_text(format_samples(small_data.train[:3]))
    lines = path.read_text().splitlines()
    if edit == "drop_feature":
        lines[2] = lines[2].rsplit("\t", 1)[0]
    else:
        lines[2] += "\t0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
        read_samples(path)


@pytest.mark.parametrize("name", ["validation", "test"])
def test_read_split_dataset_rejects_splits_of_unequal_width(tmp_path, name):
    write_split_dataset(tmp_path, format_split_dataset(generate_source(SourceConfig(dim=16), 30)))
    narrow = generate_source(SourceConfig(dim=8), 30)
    (tmp_path / f"{name}.tsv").write_text(format_samples(getattr(narrow, name)))
    with pytest.raises(ValueError, match=f"the {name} split has 8 features, the train split has 16"):
        read_split_dataset(tmp_path)


def test_read_split_dataset_rejects_empty_train_split(tmp_path, small_data):
    write_split_dataset(tmp_path, format_split_dataset(small_data))
    (tmp_path / "train.tsv").write_text(format_samples(small_data.train[:0]))
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'train.tsv'}: ")):
        read_split_dataset(tmp_path)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (1, "3", "class must be 0, 1 or 2, got '3'"),
        (1, "x", "class must be 0, 1 or 2, got 'x'"),
        (4, "abc", "f2 must be a finite number, got 'abc'"),
        (0, "-1", "subject_id must be an integer >= 0, got '-1'"),
        (3, "nan", "f1 must be a finite number, got 'nan'"),
    ],
)
def test_read_samples_rejects_bad_cells_naming_line_and_column(tmp_path, small_data, column, value, message):
    path = tmp_path / "samples.tsv"
    path.write_text(format_samples(small_data.train[:4]))
    lines = path.read_text().splitlines()
    cells = lines[3].split("\t")
    cells[column] = value
    lines[3] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as e:
        read_samples(path)
    assert str(e.value) == f"{path}:4: {message}"


def test_samples_tsv_bytes_are_unchanged_by_a_round_trip(tmp_path, small_data):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text(format_samples(small_data.train))
    b.write_text(format_samples(read_samples(a)))
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    train = small_data.train
    assert rows[1] == "\t".join(
        [str(train.subjects[0]), str(train.classes[0])] + [f"{x:.17g}" for x in train.features[0]]
    )
