"""Cross-validation, grid search and the metric-learner + k-NN pipeline.

A :class:`SupervisedTask` pairs a learner with the arguments of its ``fit``.
The learner's ``supervision`` kind picks its row of :data:`SUPERVISION`: how
the folds are split and how each fold is scored. Points with class labels
(``labels``) or chunklet ids (``chunks``) split stratified on them and score
through a downstream k-NN classifier in the learned space. Labeled pairs
(``pairs``) are scored by threshold, auto-calibrated on each training fold,
or by ROC-AUC; quadruplets (``quads``) by the fraction of held-out
quadruplets predicted in the right order. Tuple kinds split by tuple index,
so the same underlying point may appear on both sides of a fold boundary.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .base import check_at_least
from .exceptions import ValidationError
from .rng import SplitMix64
from .scoring import score
from .tuples import validate_tuples


@dataclass
class SupervisedTask:
    """A metric learner and the arguments of its ``fit``: points or a tuple
    block ``x``, and labels, chunklet ids or pair labels ``y`` (None for
    quadruplets). ``knn_k`` applies to the k-NN scored kinds."""
    x: np.ndarray
    y: np.ndarray | None
    estimator: object
    knn_k: int = 3


@dataclass
class CvResult:
    test_scores: list
    train_scores: list
    mean: float
    std: float
    folds: list = field(default_factory=list)
    fold_models: list = field(default_factory=list)


def kfold_split(n: int, k: int, seed: int, stratify_labels=None):
    """k disjoint, seed-shuffled folds of 0..n-1; returns (train, test) pairs.

    With stratify_labels, each fold keeps per-class proportions within one
    sample; strata smaller than k trigger a warning and an unstratified split.
    """
    if not 2 <= k <= n:
        raise ValidationError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    assignment = np.empty(n, dtype=int)
    if stratify_labels is not None:
        labels = np.asarray(stratify_labels)
        if len(labels) != n:
            raise ValidationError("stratify_labels length must equal n")
        counts = {c: int(np.sum(labels == c)) for c in np.unique(labels)}
        if min(counts.values()) < k:
            warnings.warn(
                "a stratum is smaller than the number of folds; "
                "falling back to an unstratified split",
                UserWarning,
            )
            stratify_labels = None
    if stratify_labels is None:
        order = list(range(n))
        rng.shuffle(order)
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        start = 0
        for fold, size in enumerate(sizes):
            assignment[order[start:start + size]] = fold
            start += size
    else:
        labels = np.asarray(stratify_labels)
        counter = 0
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c).tolist()
            rng.shuffle(members)
            for idx in members:
                assignment[idx] = counter % k
                counter += 1
    folds = []
    for fold in range(k):
        test = np.flatnonzero(assignment == fold)
        train = np.flatnonzero(assignment != fold)
        folds.append((train, test))
    return folds


# query-train pairs per chunk (and difference rows per exact recheck); 2**16
# was no faster on 1000 x 1000 queries and raised the peak resident set by 3 MB
_KNN_CHUNK_ELEMENTS = 2 ** 14
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def knn_predict(train_x, train_y, test_x, knn_k: int, model):
    """Majority-vote k-NN in the learned space.

    Distance ties resolve toward the lower training index; vote ties toward
    the smallest label value. Queries run in chunks of at most
    ``_KNN_CHUNK_ELEMENTS`` query-train pairs, so memory does not grow with
    the number of queries; the neighbors and distances are the ones a
    per-query ``np.linalg.norm`` and stable ``argsort`` give (see
    :func:`_k_nearest`).
    """
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y)
    if len(train_x) == 0:
        raise ValidationError("k-NN needs a non-empty training set")
    check_at_least("knn_k", knn_k, 1)
    if knn_k > len(train_x):
        raise ValidationError(
            f"knn_k={knn_k} exceeds the {len(train_x)} training samples"
        )
    z_train = model.transform(train_x)
    z_test = model.transform(np.asarray(test_x, dtype=float))
    labels, codes = np.unique(train_y, return_inverse=True)
    onehot = codes[:, None] == np.arange(len(labels))
    step = max(1, _KNN_CHUNK_ELEMENTS // len(z_train))
    pred = np.empty(len(z_test), dtype=int)
    for start in range(0, len(z_test), step):
        near = _k_nearest(z_train, z_test[start:start + step], knn_k)
        pred[start:start + step] = np.argmax(near.astype(float) @ onehot, axis=1)
    # built from the label scalars, so a string result is only as wide as
    # its longest predicted label
    return np.array(list(labels[pred]))


def _k_nearest(z_train, z_query, k: int) -> np.ndarray:
    """Mask (queries, train) of each query's k nearest training points.

    A Gram-matrix estimate of the squared distances, with a bound on its
    rounding error, rules out the points that are certainly farther than the
    k-th nearest. Only the rest get an exact distance, computed the way
    ``np.linalg.norm(z_train - q, axis=1)`` does it (square root of the
    summed squares along each row), so the values have the same bits. The k
    nearest are then the points strictly closer than the k-th smallest
    distance plus the lowest-index points at that distance: the prefix a
    stable argsort gives.
    """
    center = z_train.mean(axis=0)
    a = z_query - center
    b = z_train - center
    sa = np.einsum("qc,qc->q", a, a)[:, None]
    sb = np.einsum("nc,nc->n", b, b)
    approx = sa + sb - 2.0 * (a @ b.T)
    # about twice the worst |approx - exact squared distance| from rounding
    # in the centering, the products and both sums (the floor covers
    # underflow); the room over also keeps every point whose distance only
    # ties the k-th one after the square root
    tol = (4 * z_train.shape[1] + 32) * (_EPS * (sa + sb) + _TINY)
    upper = np.partition(approx + tol, k - 1, axis=1)[:, k - 1, None]
    # negated so that a NaN estimate (overflow) keeps its point
    qi, ti = np.nonzero(~(approx - tol > upper))
    d = np.full(approx.shape, np.inf)
    rows = max(1, _KNN_CHUNK_ELEMENTS // z_train.shape[1])
    for s in range(0, len(qi), rows):
        i, j = qi[s:s + rows], ti[s:s + rows]
        diff = z_train[j] - z_query[i]
        d[i, j] = np.sqrt(np.add.reduce(diff * diff, axis=1))
    kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
    near = d < kth
    tie = d == kth
    need = k - near.sum(axis=1, keepdims=True)
    near |= tie & (np.cumsum(tie, axis=1) <= need)
    return near


def _knn_scorer(task, est, train, metric_name):
    x_train, y_train = task.x[train], task.y[train]

    def score_on(rows):
        pred = knn_predict(x_train, y_train, task.x[rows], task.knn_k, est.model_)
        if metric_name == "accuracy":
            return float(np.mean(pred == task.y[rows]))
        return score(metric_name, task.y[rows], pred)
    return score_on


def _pair_scorer(task, est, train, metric_name):
    if metric_name == "roc_auc":
        predict = est.model_.decision_function_pairs
    else:
        est.calibrate_threshold(task.x[train], task.y[train], metric_name)
        predict = est.model_.predict_pairs
    return lambda rows: score(metric_name, task.y[rows], predict(task.x[rows]))


def _quad_scorer(task, est, train, metric_name):
    return lambda rows: float(np.mean(est.model_.predict_quadruplets(task.x[rows]) == 1))


class Supervision(NamedTuple):
    """How cross-validation treats one kind of supervision."""
    arity: int | None  # tuple arity; None for points, which split stratified on y
    y_name: str | None  # what a training fold needs two distinct values of
    scorer: Callable  # (task, fitted estimator, train rows, metric) -> rows -> score


SUPERVISION = {
    "labels": Supervision(None, "class", _knn_scorer),
    "chunks": Supervision(None, "class", _knn_scorer),
    "pairs": Supervision(2, "pair label", _pair_scorer),
    "quads": Supervision(4, None, _quad_scorer),
}


def _supervision(task) -> Supervision:
    kind = getattr(getattr(task, "estimator", None), "supervision", None)
    if kind not in SUPERVISION:
        raise ValidationError(
            f"unknown supervision kind {kind!r} for task {type(task).__name__}"
        )
    return SUPERVISION[kind]


def cross_validate(task, k: int, seed: int, metric_name: str = "accuracy") -> CvResult:
    """Per-fold fit and evaluation; no test-fold information reaches a fit."""
    kind = _supervision(task)
    x, y = task.x, task.y
    if kind.arity is None:
        folds = kfold_split(len(x), k, seed, stratify_labels=y)
    else:
        validate_tuples(x, kind.arity, labels=y)
        folds = kfold_split(len(x), k, seed)
    test_scores, train_scores, models = [], [], []
    for fold, (train, test) in enumerate(folds):
        est = task.estimator.clone()
        if y is None:
            est.fit(x[train])
        else:
            if len(np.unique(y[train])) < 2:
                raise ValidationError(
                    f"fold {fold} is degenerate: one {kind.y_name} in training data"
                )
            est.fit(x[train], y[train])
        score_on = kind.scorer(task, est, train, metric_name)
        test_scores.append(score_on(test))
        train_scores.append(score_on(train))
        models.append(est.model_)
    mean = sum(test_scores) / len(test_scores)
    std = float(np.sqrt(sum((s - mean) ** 2 for s in test_scores) / len(test_scores)))
    return CvResult(test_scores, train_scores, float(mean), std, folds, models)


def _apply_candidate(task, params: dict):
    est = task.estimator.clone()
    task = replace(task, estimator=est)
    for name, value in params.items():
        if name == "knn_k":
            if _supervision(task).scorer is not _knn_scorer:
                raise ValidationError("knn_k only applies to k-NN scored tasks")
            task.knn_k = check_at_least("knn_k", value, 1)
        else:
            est.set_params(**{name: value})
    return task


def grid_search(task, grid: dict, k: int, seed: int, metric_name: str = "accuracy"):
    """Exhaustive search over the Cartesian grid under identical folds.

    Returns (best_row, table); ties break toward the earliest candidate in
    product order (grid keys in declaration order, values in list order).
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValidationError("grid must map names to non-empty value lists")
    names = list(grid.keys())
    table = []
    best = None
    for values in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, values))
        try:
            result = cross_validate(_apply_candidate(task, params), k, seed,
                                    metric_name)
        except ValidationError as exc:
            raise ValidationError(f"candidate {params}: {exc}") from exc
        row = {"params": params, "test_scores": result.test_scores,
               "train_scores": result.train_scores, "mean": result.mean,
               "std": result.std}
        table.append(row)
        if best is None or row["mean"] > best["mean"]:
            best = row
    return best, table
