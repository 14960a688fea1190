"""ROC-AUC, the score that drives task sampling and model selection.

AUC is the trapezoidal area under the ROC curve built over tie groups, which
equals the probability that a random positive outscores a random negative
with ties counting one half.  All functions here are pure.
"""

from __future__ import annotations

import numpy as np


class DegenerateAucError(ValueError):
    """AUC requested for a single-class label set."""


def compute_auc(scores, labels):
    """Area under the ROC curve of ``scores`` against binary ``labels``.

    Ties are handled by grouping equal scores and joining the resulting ROC
    points with trapezoids (equivalently: tied positive-negative pairs count
    one half).  Raises DegenerateAucError unless both classes are present.

    With a leading axis, scores and labels of shape (B, m) give an array of
    the B row AUCs; row b has the same bits as the call on row b alone.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must have equal shapes, got {scores.shape} vs {labels.shape}"
        )
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be (m,) or (B, m), got shape {scores.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(np.int64, copy=False)
    rows_s, rows_y = (scores, labels) if scores.ndim == 2 else (scores[None], labels[None])
    n_pos = rows_y.sum(axis=1)
    n_neg = rows_y.shape[1] - n_pos
    degenerate = (n_pos == 0) | (n_neg == 0)
    if degenerate.any():
        b = int(np.argmax(degenerate))
        where = f"row {b}: " if scores.ndim == 2 else ""
        raise DegenerateAucError(
            f"{where}degenerate AUC: need both classes, "
            f"got {n_pos[b]} positives and {n_neg[b]} negatives"
        )

    # Sort each row by descending score; first[i] is where sample i's tie
    # group starts and before[i] counts the positives ahead of that group.
    # Twice the area (2 per pair the positive wins, 1 per tied pair) is then
    # n_pos*n_neg + sum(before) - sum(first over positives).  Every term is an
    # exact integer, so a row's AUC has the same bits whatever the row count.
    rows = np.arange(len(rows_s))[:, None]
    order = np.argsort(-rows_s, axis=1, kind="stable")
    s = rows_s[rows, order]
    y = rows_y[rows, order]
    starts = np.empty(s.shape, dtype=bool)
    starts[:, 0] = True
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
    first = np.maximum.accumulate(starts * np.arange(s.shape[1]), axis=1)
    before = (np.cumsum(y, axis=1) - y)[rows, first]
    pairs = n_pos * n_neg
    area = (pairs + (before - y * first).sum(axis=1)) / 2.0
    auc = area / pairs
    return auc if scores.ndim == 2 else float(auc[0])
