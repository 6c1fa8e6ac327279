"""Cross-validation, grid search and the metric-learner + k-NN pipeline.

A :class:`SupervisedTask` pairs a learner with the arguments of its ``fit``.
The learner's ``supervision`` kind picks its row of :data:`SUPERVISION`: how
the folds are split and how each fold is scored. Points with class labels
(``labels``) or chunklet ids (``chunks``) split stratified on them and score
through a downstream k-NN classifier in the learned space. Labeled pairs
(``pairs``) are scored by threshold, auto-calibrated on each training fold,
or by ROC-AUC; quadruplets (``quads``) by scoring their order predictions
against a truth of all +1, so accuracy is the fraction predicted in the
right order, F1 the F1 of those predictions, and ROC-AUC, undefined on one
class, raises. Tuple kinds split by tuple index, so the same underlying
point may appear on both sides of a fold boundary.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ValidationError, check_at_least
from .rng import SplitMix64
from .scoring import METRIC_NAMES, score
from .tuples import ARITY, _as_labels, validate_supervision


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
    if stratify_labels is not None:
        labels = _as_labels(stratify_labels, n)
        # each NaN its own class of one, so NaN labels never stratify
        classes, counts = np.unique(labels, return_counts=True, equal_nan=False)
        if counts.min() < k:
            warnings.warn(
                "a stratum is smaller than the number of folds; "
                "falling back to an unstratified split",
                UserWarning,
            )
            stratify_labels = None
    # order lists the samples in the order they are dealt to folds
    if stratify_labels is None:
        order = list(range(n))
        rng.shuffle(order)
        fold_of = np.repeat(np.arange(k), n // k + (np.arange(k) < n % k))
    else:
        order = []
        for c in classes:
            members = np.flatnonzero(labels == c).tolist()
            rng.shuffle(members)
            order += members
        fold_of = np.arange(n) % k
    assignment = np.empty(n, dtype=int)
    assignment[order] = fold_of
    return [(np.flatnonzero(assignment != fold), np.flatnonzero(assignment == fold))
            for fold in range(k)]


# query-train pairs per chunk (and difference rows per exact recheck); on
# 1000 x 1000 queries 2**16 was no faster (15.1 ms against 15.1, median of 6
# interleaved runs on a 2-vCPU VM) with four times the chunk buffers, and
# 2**12 was slower (23.7 ms)
_KNN_CHUNK_ELEMENTS = 2 ** 14
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def knn_predict(train_x, train_y, test_x, knn_k: int, model):
    """Majority-vote k-NN in the learned space.

    Each query's neighbors are the first ``knn_k`` training points in
    (distance, index) order, with the distances ``np.linalg.norm`` gives, so
    distance ties resolve toward the lower training index (see
    :func:`_k_nearest`). The vote counts each chunk's neighbor labels with
    one ``np.bincount`` over (query, label code) keys; ``argmax`` takes the
    first label of the largest count, so a vote tie goes to the smallest
    label value. Queries run in chunks of at most ``_KNN_CHUNK_ELEMENTS``
    query-train pairs, so memory does not grow with the number of queries.
    """
    train_x, train_y = validate_supervision("labels", train_x, train_y)
    check_at_least("knn_k", knn_k, 1)
    if knn_k > len(train_x):
        raise ValidationError(
            f"knn_k={knn_k} exceeds the {len(train_x)} training samples"
        )
    z_train = model.transform(train_x)
    z_test = model.transform(test_x)
    labels, codes = np.unique(train_y, return_inverse=True)
    pred = np.empty(len(z_test), dtype=np.intp)
    for rows, near in _k_nearest(z_train, z_test, knn_k):
        key = np.arange(len(near))[:, None] * len(labels) + codes[near]
        votes = np.bincount(key.ravel(), minlength=len(near) * len(labels))
        pred[rows] = votes.reshape(len(near), len(labels)).argmax(axis=1)
    if labels.dtype.kind in "biuf":
        return labels[pred]
    if not len(pred):
        # no label to build from: the type a query given the first label gets
        return np.array(list(labels[:1]))[:0]
    # built from the label scalars, so a string result is only as wide as
    # its longest predicted label
    return np.array(list(labels[pred]))


def _k_nearest(z_train, z_query, k: int):
    """Yield (rows, near) per chunk of queries: ``near[i]`` holds the
    indices of query ``rows[i]``'s k nearest training points in (distance,
    index) order, the prefix a per-query stable argsort gives.

    Each chunk makes one set of dense passes over its query-train pairs: a
    Gram-matrix estimate of the squared distances, a bound on its rounding
    error per pair, one ``partition`` for each query's k-th smallest
    estimate-plus-bound, and one test that keeps the points whose
    estimate-minus-bound does not exceed it. The kept points are a short
    candidate list that holds the k nearest and every point tied with the
    k-th, since the bound covers the estimate's error with room to spare.
    The rest works on that list alone. Each candidate gets an exact
    distance, computed the way ``np.linalg.norm(z_train - q, axis=1)`` does
    it (square root of the summed squares along each row), so the values
    have the same bits. One ``np.lexsort`` by (query, distance) orders the
    list. It is stable, and ``np.flatnonzero`` lists each query's candidates
    by ascending index, so equal distances keep index order and each
    query's first k entries are its neighbors.
    """
    n_train = len(z_train)
    center = z_train.mean(axis=0)
    b = z_train - center
    sb = np.einsum("nc,nc->n", b, b)
    scale = 4 * z_train.shape[1] + 32
    step = max(1, _KNN_CHUNK_ELEMENTS // n_train)
    recheck = max(1, _KNN_CHUNK_ELEMENTS // z_train.shape[1])
    for start in range(0, len(z_query), step):
        z = z_query[start:start + step]
        a = z - center
        approx = a @ b.T
        approx *= -2.0
        tol = np.einsum("qc,qc->q", a, a)[:, None] + sb
        approx += tol  # the bits of sa + sb - 2 a.b
        # about twice the worst |approx - exact squared distance| from
        # rounding in the centering, the products and both sums (the floor
        # covers underflow); the room over also keeps every point whose
        # distance only ties the k-th one after the square root
        tol *= _EPS
        tol += _TINY
        tol *= scale
        upper = approx + tol
        upper.partition(k - 1, axis=1)
        approx -= tol
        # negated so that a NaN estimate (overflow) keeps its point; every
        # query keeps at least the k points at or below its k-th bound
        far = approx > upper[:, k - 1, None]
        qi, ti = np.divmod(np.flatnonzero(~far), n_train)
        d = np.empty(len(qi))
        for s in range(0, len(qi), recheck):
            diff = z_train[ti[s:s + recheck]] - z[qi[s:s + recheck]]
            d[s:s + recheck] = np.sqrt(np.add.reduce(diff * diff, axis=1))
        first = np.searchsorted(qi, np.arange(len(z)))
        order = np.lexsort((d, qi))
        yield slice(start, start + step), ti[order[first[:, None] + np.arange(k)]]


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
    # every quadruplet's true order is +1: its first pair is the closer one
    def score_on(rows):
        pred = est.model_.predict_quadruplets(task.x[rows])
        return score(metric_name, np.ones(len(pred)), pred)
    return score_on


class Supervision(NamedTuple):
    """How cross-validation treats one kind of supervision; points (see
    :data:`~mlearn.tuples.ARITY`) split stratified on y, tuples do not."""
    y_name: str | None  # what a training fold needs two distinct values of
    scorer: Callable  # (task, fitted estimator, train rows, metric) -> rows -> score
    metrics: tuple = METRIC_NAMES  # the metric names that can score it


SUPERVISION = {
    "labels": Supervision("class", _knn_scorer),
    "chunks": Supervision("class", _knn_scorer),
    "pairs": Supervision("pair label", _pair_scorer),
    # ROC-AUC is undefined on the single true class of quadruplets
    "quads": Supervision(None, _quad_scorer, ("accuracy", "f1")),
}


def _supervision(task) -> str:
    kind = getattr(getattr(task, "estimator", None), "supervision", None)
    if kind not in SUPERVISION:
        raise ValidationError(
            f"unknown supervision kind {kind!r} for task {type(task).__name__}"
        )
    return kind


def cross_validate(task, k: int, seed: int, metric_name: str = "accuracy") -> CvResult:
    """Per-fold fit and evaluation; no test-fold information reaches a fit.
    The metric name is checked against the task's kind before any fit."""
    name = _supervision(task)
    kind = SUPERVISION[name]
    if metric_name not in kind.metrics:
        raise ValidationError(
            f"metric {metric_name!r} cannot score {name} tasks; "
            f"expected one of {kind.metrics}"
        )
    x, y = validate_supervision(name, task.x, task.y)
    task = replace(task, x=x, y=y)
    folds = kfold_split(len(x), k, seed,
                        stratify_labels=y if ARITY[name] is None else None)
    test_scores, train_scores, models = [], [], []
    for fold, (train, test) in enumerate(folds):
        y_train = None if y is None else y[train]
        if kind.y_name and len(np.unique(y_train)) < 2:
            raise ValidationError(
                f"fold {fold} is degenerate: one {kind.y_name} in training data"
            )
        est = task.estimator.clone()
        est.fit(x[train], y_train)
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
            if SUPERVISION[_supervision(task)].scorer is not _knn_scorer:
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
