"""Pair-threshold calibration: exact search over the midpoint grid.

Candidate thresholds are the midpoints between consecutive distinct sorted
distances plus two sentinels (min-1 and max+1). Every achievable confusion
matrix of the rule "distance <= threshold -> similar" is realized by one of
these candidates, so the search is exact. Ties go to the smallest threshold.

The search sorts the distances once and reads each candidate's confusion
matrix off cumulative counts (``searchsorted`` over the sorted positive
distances and over all sorted distances), so it costs O(n log n) instead of
one rescoring per candidate. Accuracy and F1 are then computed from those
integer counts with the same float operations as :mod:`scoring`, so the
scores are the ones a per-candidate rescoring would give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .model import _distances
from .tuples import validate_supervision


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    achieved_score: float
    metric_name: str


def candidate_thresholds(distances) -> np.ndarray:
    """The candidate thresholds of ``distances``, given in any order."""
    # with return_inverse, np.unique never takes its path that imports numpy.ma
    d = np.unique(np.asarray(distances, dtype=float), return_inverse=True)[0]
    mids = 0.5 * (d[:-1] + d[1:])
    return np.concatenate(([d[0] - 1.0], mids, [d[-1] + 1.0]))


def calibrate_threshold(model, pairs, y, metric: str = "accuracy") -> CalibrationResult:
    """Best pair threshold for the given metric on labeled pairs.

    Does not mutate the model; the caller stores the threshold where needed.
    """
    # the distance kernel checks finiteness on the chunk it holds
    pairs, y = validate_supervision("pairs", pairs, y, model.n_features,
                                    check_finite=False)
    if len(pairs) == 0:
        raise ValidationError("cannot calibrate on an empty pair set")
    if metric not in ("accuracy", "f1"):
        raise ValidationError(f"unsupported calibration metric {metric!r}")
    is_pos = y == 1
    if metric == "f1" and not np.any(is_pos):
        raise ValidationError("f1 calibration needs at least one +1 label")
    distances = _distances(model.components, pairs[:, 0], pairs[:, 1])
    ordered = np.sort(distances)
    candidates = candidate_thresholds(ordered)
    # counts of pairs predicted similar (distance <= threshold), per candidate
    tp = np.searchsorted(np.sort(distances[is_pos]), candidates, side="right")
    fp = np.searchsorted(ordered, candidates, side="right") - tp
    n_pos = int(np.count_nonzero(is_pos))
    if metric == "accuracy":
        tn = (len(y) - n_pos) - fp
        scores = (tp + tn) / len(y)
    else:
        fn = n_pos - tp
        scores = 2.0 * tp / (2 * tp + fp + fn)
    best = int(np.argmax(scores))
    return CalibrationResult(float(candidates[best]), float(scores[best]), metric)
