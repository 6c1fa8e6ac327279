"""Cross-validation, grid search and the metric-learner + k-NN pipeline.

A :class:`SupervisedTask` pairs a learner with the arguments of its ``fit``.
The arity of the learner's ``supervision`` kind in
:data:`~mlearn.tuples.KINDS` decides how the folds are split and how each
fold is scored. Points with class labels or chunklet ids split stratified
on them and score through a downstream k-NN classifier in the learned
space (accuracy or F1: a vote is a label, not a score). Labeled pairs are
scored by threshold, auto-calibrated on each training fold, or by ROC-AUC;
quadruplets by scoring their order predictions against a truth of all +1,
so accuracy is the fraction predicted in the right order, F1 the F1 of
those predictions, and ROC-AUC, undefined on one class, raises. Tuple kinds
split by tuple index, so the same underlying point may appear on both sides
of a fold boundary.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ValidationError, check_at_least
from .rng import SplitMix64
from .scoring import METRIC_NAMES, score
from .tuples import KINDS, _as_labels, class_blocks, validate_supervision


@dataclass
class SupervisedTask:
    """A metric learner and the arguments of its ``fit``: points or a tuple
    block ``x``, and labels, chunklet ids or pair labels ``y`` (None for
    quadruplets). ``knn_k`` applies to points, which k-NN scores."""
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
    if check_at_least("k", k, 2) > n:
        raise ValidationError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    if stratify_labels is not None:
        # each NaN its own class of one, so NaN labels never stratify
        _, _, members, blocks = class_blocks(_as_labels(stratify_labels, n))
        if min(b.stop - b.start for b in blocks) < k:
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
        for b in blocks:
            block = members[b].tolist()
            rng.shuffle(block)
            order += block
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
    # finiteness is judged where transform maps the rows
    train_x, train_y = validate_supervision("labels", train_x, train_y,
                                            check_finite=False)
    check_at_least("knn_k", knn_k, 1)
    if knn_k > len(train_x):
        raise ValidationError(
            f"knn_k={knn_k} exceeds the {len(train_x)} training samples"
        )
    z_train = model.transform(train_x)
    z_test = model.transform(test_x)
    labels, codes, _, _ = class_blocks(train_y)
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

    Each chunk makes one set of dense passes over its query-train pairs to
    find a short candidate list that holds the k nearest and every point
    tied with the k-th. Queries ``a`` and training points ``b`` are centred
    on the training mean, with squared norms ``sa`` and ``sb``. For a query,
    the squared distance to point j less the row constant ``sa`` is
    estimated as ``p_j + sb_j``, where ``p = (-2a) @ b.T`` is one product
    (scaling by -2 is exact, so ``p`` has the bits of ``-2 a.b``). The
    tolerance is ``t_j = ta + tb_j``, the outer sum of ``ta = s sa + f`` and
    ``tb = s sb`` with ``s = (4c + 32) eps`` for c columns and an underflow
    floor ``f = (4c + 32) tiny``. The row constant ``ta`` moves to the
    threshold: one ``partition`` finds ``u``, the k-th smallest upper
    estimate ``p_j + (sb_j + tb_j)``, and point j is kept when its lower
    estimate ``p_j + (sb_j - tb_j)`` is at most ``u + 2 ta``, compared
    straight into ``flatnonzero``.

    Why that keeps every point it must, in units of ``eps (sa + sb_j)``:
    rounding in the centring, the product and the norms puts ``p_j + sb_j``
    within ``c + 2`` of its exact value (``|2 a.b| <= sa + sb``). The sums
    that form the two estimates and the threshold add at most 2.5. A point
    whose exact distance exceeds the k-th's but whose computed distance
    ties it (exact squared distances within a relative ``c + 4`` eps, and a
    squared distance is at most ``2 (sa + sb_j)``) needs ``2c + 8`` more.
    The total, ``3c + 12.5``, is below ``4c + 32``. Where a chunk's norms
    could overflow these sums, or are not finite, every point of the chunk
    is a candidate.

    The rest works on the candidate list alone. Each candidate gets an exact
    distance, computed the way ``np.linalg.norm(z_train - q, axis=1)`` does
    it (square root of the summed squares along each row), so the values
    have the same bits. One ``np.lexsort`` by (query, distance) orders the
    list. It is stable, and ``np.flatnonzero`` lists each query's candidates
    by ascending index, so equal distances keep index order and each
    query's first k entries are its neighbors.
    """
    n_train, c = z_train.shape
    center = z_train.mean(axis=0)
    b = z_train - center
    sb = np.einsum("nc,nc->n", b, b)
    rel = (4 * c + 32) * _EPS
    floor = (4 * c + 32) * _TINY
    tb = rel * sb
    hi, lo = sb + tb, sb - tb
    sb_max = float(sb.max())
    step = max(1, _KNN_CHUNK_ELEMENTS // n_train)
    recheck = max(1, _KNN_CHUNK_ELEMENTS // c)
    for start in range(0, len(z_query), step):
        z = z_query[start:start + step]
        a = z - center
        sa = np.einsum("qc,qc->q", a, a)
        if math.isfinite(4.0 * (float(sa.max()) + sb_max)):
            p = (-2.0 * a) @ b.T
            upper = p + hi
            upper.partition(k - 1, axis=1)
            bound = upper[:, k - 1] + 2.0 * (rel * sa + floor)
            p += lo
            keep = np.flatnonzero(p <= bound[:, None])
        else:
            keep = np.arange(len(z) * n_train)
        qi, ti = np.divmod(keep, n_train)
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


def _kind(task):
    """(kind, tuple arity) of the task's supervision; the arity is None for
    points, which split stratified on y and score by k-NN."""
    kind = getattr(getattr(task, "estimator", None), "supervision", None)
    if kind not in KINDS:
        raise ValidationError(
            f"unknown supervision kind {kind!r} for task {type(task).__name__}"
        )
    return kind, KINDS[kind][0]


def cross_validate(task, k: int, seed: int, metric_name: str = "accuracy") -> CvResult:
    """Per-fold fit and evaluation; no test-fold information reaches a fit.
    The metric name is checked against the task's kind before any fit, and
    ``f1`` on a k-NN scored kind against its labels, which must all be +/-1."""
    name, arity = _kind(task)
    # a k-NN vote is a label, not a score, and ROC-AUC is undefined on the
    # single true class of quadruplets: only pairs have decision values to rank
    metrics = METRIC_NAMES if arity == 2 else ("accuracy", "f1")
    if metric_name not in metrics:
        raise ValidationError(
            f"metric {metric_name!r} cannot score {name} tasks; "
            f"expected one of {metrics}"
        )
    x, y = validate_supervision(name, task.x, task.y)
    # a k-NN vote is a training label, and F1 takes +1 as its positive class
    if (metric_name == "f1" and arity is None
            and not np.all(np.isin(y, (-1, 1)))):
        raise ValidationError(
            f"metric 'f1' scores {name} tasks only when every label is +1 or "
            "-1; use 'accuracy' for other labels"
        )
    task = replace(task, x=x, y=y)
    folds = kfold_split(len(x), k, seed,
                        stratify_labels=y if arity is None else None)
    scorer = (_knn_scorer if arity is None
              else _pair_scorer if arity == 2 else _quad_scorer)
    test_scores, train_scores, models = [], [], []
    for fold, (train, test) in enumerate(folds):
        y_train = None if y is None else y[train]
        # compared with the first value: a plain np.unique imports numpy.ma
        if y is not None and np.all(y_train == y_train[:1]):
            noun = "class" if arity is None else "pair label"
            raise ValidationError(
                f"fold {fold} is degenerate: one {noun} in training data"
            )
        est = task.estimator.clone()
        est.fit(x[train], y_train)
        score_on = scorer(task, est, train, metric_name)
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
            if _kind(task)[1] is not None:
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
    tasks, table = [], []
    try:
        # every candidate is applied, so a bad one is refused, before any fold
        for values in itertools.product(*grid.values()):
            params = dict(zip(grid, values))
            tasks.append((params, _apply_candidate(task, params)))
        for params, candidate in tasks:
            result = cross_validate(candidate, k, seed, metric_name)
            table.append({"params": params, "test_scores": result.test_scores,
                          "train_scores": result.train_scores,
                          "mean": result.mean, "std": result.std})
    except ValidationError as exc:
        raise ValidationError(f"candidate {params}: {exc}") from exc
    # max keeps the first of equal means: a tie goes to the earliest candidate
    return max(table, key=lambda row: row["mean"]), table
