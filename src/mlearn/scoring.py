"""Binary scorers over +/-1 labels: accuracy, F1 and ROC-AUC.

ROC-AUC is the fraction of positive-negative pairs ranked correctly, ties
counting half, which makes it exactly invariant under any strictly increasing
transform of the decision values. It is computed as a rank sum (the
Mann-Whitney U statistic) with mid-ranks for tied values, in O(n log n) time
and O(n) memory. Twice a mid-rank is an integer, so the sum is carried in
integers and equals twice the concordance count (concordant pairs plus half
the tied ones) exactly.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError

METRIC_NAMES = ("accuracy", "f1", "roc_auc")


def _check_lengths(y_true, y_out):
    y_true = np.asarray(y_true)
    y_out = np.asarray(y_out, dtype=float)
    if y_true.shape != y_out.shape or y_true.ndim != 1:
        raise ValidationError(
            f"y_true and y_out must be equal-length vectors, "
            f"got {y_true.shape} and {y_out.shape}"
        )
    return y_true, y_out


def accuracy_score(y_true, y_pred) -> float:
    y_true, y_pred = _check_lengths(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def f1_score(y_true, y_pred) -> float:
    """F1 with positive class +1; defined as 0 when precision+recall = 0."""
    y_true, y_pred = _check_lengths(y_true, y_pred)
    tp = float(np.sum((y_true == 1) & (y_pred == 1)))
    fp = float(np.sum((y_true != 1) & (y_pred == 1)))
    fn = float(np.sum((y_true == 1) & (y_pred != 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def roc_auc_score(y_true, decisions) -> float:
    y_true, decisions = _check_lengths(y_true, decisions)
    is_pos = y_true == 1
    n_pos = int(np.count_nonzero(is_pos))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc is undefined with a single class present")
    if not np.all(np.isfinite(decisions)):
        raise ValidationError("roc_auc needs finite decision values")
    _, inverse, counts = np.unique(decisions, return_inverse=True, return_counts=True)
    # twice the mid-rank of each distinct value; ranks run from 1 upwards
    twice_rank = 2 * np.cumsum(counts) - counts + 1
    twice_u = int(np.sum(twice_rank[inverse[is_pos]])) - n_pos * (n_pos + 1)
    return 0.5 * twice_u / (n_pos * n_neg)


def score(metric_name: str, y_true, y_out) -> float:
    """Dispatch on metric name; accuracy/f1 expect +/-1 predictions,
    roc_auc expects continuous decision values."""
    if metric_name == "accuracy":
        _require_hard_labels(y_out)
        return accuracy_score(y_true, y_out)
    if metric_name == "f1":
        _require_hard_labels(y_out)
        return f1_score(y_true, y_out)
    if metric_name == "roc_auc":
        return roc_auc_score(y_true, y_out)
    raise ValidationError(
        f"unknown metric {metric_name!r}; expected one of {METRIC_NAMES}"
    )


def _require_hard_labels(y_out):
    if not np.all(np.isin(np.asarray(y_out), (-1, 1))):
        raise ValidationError("this metric expects predictions in {+1, -1}")
