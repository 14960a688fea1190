"""Tests for ROC-AUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curmeta.metrics import DegenerateAucError, compute_auc
from oracles import concordance_auc, reference_auc


# -------------------------------------------------------------- hand cases


def test_auc_perfect_separation():
    assert compute_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_reversed_separation():
    assert compute_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_all_scores_tied():
    assert compute_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_partial_tie_hand_value():
    # pairs: (.9,.3)=1, (.8,.3)=1 twice at the tied positive, one tied pair at .8
    scores = [0.9, 0.8, 0.8, 0.3]
    labels = [1, 0, 1, 0]
    assert compute_auc(scores, labels) == pytest.approx(0.875, abs=1e-15)


def test_auc_single_pair():
    assert compute_auc([0.2, 0.7], [0, 1]) == 1.0
    assert compute_auc([0.7, 0.2], [0, 1]) == 0.0
    assert compute_auc([0.4, 0.4], [0, 1]) == 0.5


def test_auc_order_invariant(rng):
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    perm = rng.permutation(30)
    assert compute_auc(scores, labels) == pytest.approx(
        compute_auc(scores[perm], labels[perm]), abs=1e-15
    )


# ------------------------------------------------------------- degeneracy


def test_auc_rejects_single_class():
    with pytest.raises(DegenerateAucError):
        compute_auc([0.1, 0.9], [1, 1])
    with pytest.raises(DegenerateAucError):
        compute_auc([0.1, 0.9], [0, 0])


def test_degenerate_error_is_a_value_error():
    assert issubclass(DegenerateAucError, ValueError)


def test_auc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_auc([0.1, 0.9], [0, 1, 1])
    with pytest.raises(ValueError):
        compute_auc([0.1, 0.9], [0, 2])
    # fractional labels are checked before the integer cast, not truncated to 0 and 1
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        compute_auc([0.1, 0.9, 0.5], [0.2, 1.5, 0.0])
    assert compute_auc([0.1, 0.9], [False, True]) == compute_auc([0.1, 0.9], [0.0, 1.0]) == 1.0


# ----------------------------------------------------- agreement with pairs


def test_auc_matches_concordance_on_tied_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        # coarse grid scores force plenty of exact ties
        scores = rng.integers(0, 6, size=n) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(compute_auc(scores, labels) - concordance_auc(scores, labels)) < 1e-12


# ------------------------------------------------------------- stacked rows


@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "tied"])
def test_stacked_auc_rows_equal_reference_bit_for_bit(ties):
    rng = np.random.default_rng(7 + ties)
    for _ in range(300):
        b, m = int(rng.integers(1, 9)), int(rng.integers(2, 121))
        if ties:
            scores = rng.integers(0, int(rng.integers(1, 5)) + 1, size=(b, m)).astype(float)
        else:
            scores = rng.random((b, m))
        labels = rng.integers(0, 2, size=(b, m))
        labels[:, rng.permutation(m)[:2]] = [0, 1]
        rows = compute_auc(scores, labels)
        assert isinstance(rows, np.ndarray) and rows.shape == (b,)
        for row in range(b):
            want = reference_auc(scores[row], labels[row])
            one = compute_auc(scores[row], labels[row])
            assert isinstance(one, float)
            assert rows[row].hex() == want.hex() == one.hex()


def test_stacked_auc_broadcast_labels():
    scores = np.array([[0.9, 0.1, 0.4], [0.4, 0.9, 0.4]])
    labels = np.broadcast_to(np.array([1, 0, 0]), scores.shape)
    assert compute_auc(scores, labels).tolist() == [1.0, 0.25]


def test_stacked_auc_degenerate_row_raises():
    scores = np.arange(12.0).reshape(3, 4)
    labels = np.array([[0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0]])
    with pytest.raises(DegenerateAucError, match="row 1: degenerate AUC"):
        compute_auc(scores, labels)


def test_auc_rejects_bad_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        compute_auc(np.zeros((2, 3)), np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError, match="got shape"):
        compute_auc(np.zeros((1, 2, 2)), np.array([[[0, 1], [0, 1]]]))


# ------------------------------------------------------------ property based


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 40))
def test_auc_bounds_and_complement(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 8, size=n) / 7.0
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    auc = compute_auc(scores, labels)
    assert 0.0 <= auc <= 1.0
    assert compute_auc(scores, 1 - labels) == pytest.approx(1.0 - auc, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    auc = compute_auc(scores, labels)
    assert compute_auc(3.0 * scores + 5.0, labels) == pytest.approx(auc, abs=1e-12)
    assert compute_auc(np.exp(scores), labels) == pytest.approx(auc, abs=1e-12)
