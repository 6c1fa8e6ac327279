"""Fully supervised metric learners.

Three gradient-based learners (neighborhood softmax, large-margin nearest
neighbors, kernel-regression loss) share the backtracking solver; the other
two (local Fisher discriminant analysis, chunklet whitening) are closed-form.
No implicit centering or scaling is applied to the input features.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import MahalanobisEstimator
from .exceptions import ValidationError, check_at_least
from .linalg import gen_sym_eig, psd_sqrt
from .model import FitReport, MahalanobisModel
from .optimize import backtracking_solve
from .rng import SplitMix64


def _check_two_classes(y: np.ndarray) -> None:
    if len(np.unique(y)) < 2:
        raise ValidationError("degenerate labels: need at least 2 distinct classes")


def _init_transform(init: str, n_components: int, n_features: int, seed: int):
    if init == "identity":
        return np.eye(n_features)[:n_components].copy()
    if init == "random":
        # uniform in [-1, 1) from the top 53 bits of each SplitMix64 draw
        bits = SplitMix64(seed).draws(n_components * n_features) >> np.uint64(11)
        u = bits.astype(float) * 2.0 ** -52 - 1.0
        return u.reshape(n_components, n_features) / np.sqrt(n_features)
    raise ValidationError(f"unknown init {init!r}; expected 'identity' or 'random'")


def _resolve_components(n_components, n_features: int) -> int:
    m = n_features if n_components is None else n_components
    if not 1 <= m <= n_features:
        raise ValidationError(
            f"n_components must be in [1, {n_features}], got {m}"
        )
    return m


# rows per block of pairwise_sq_dists' finishing pass
_ROW_BLOCK = 64


def pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of z (zero diagonal).

    The rows are centred first: the Gram formula |a|^2 + |b|^2 - 2 a.b
    cancels catastrophically when the rows sit far from the origin, and
    distances do not depend on a common offset. The distances are finished
    inside the Gram buffer, ``_ROW_BLOCK`` rows at a time, so the pass holds
    one n x n array and a block-sized temporary; the operations and their
    order are those of the one-line formula
    ``max((|a|^2 + |b|^2) - 2 (z @ z.T), 0)``, so the bits are too.
    """
    z = z - z.mean(axis=0)
    sq = np.sum(z * z, axis=1)
    # z @ z.T, not a product with a contiguous copy of z.T: numpy hands the
    # former to syrk, whose result is exactly symmetric
    d2 = z @ z.T
    for start in range(0, len(z), _ROW_BLOCK):
        block = d2[start:start + _ROW_BLOCK]
        block *= 2.0
        np.subtract(np.add(sq[start:start + _ROW_BLOCK, None], sq), block, out=block)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Each row of a square matrix without its diagonal entry: shape (m, m - 1)."""
    m = len(a)
    return a[~np.eye(m, dtype=bool)].reshape(m, m - 1)


_LOG_TINY = float(np.log(np.finfo(float).tiny))


def _exp_flushed(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(a) where the result is a normal float, exactly 0 where it is not.

    numpy's vector exp is one to two orders of magnitude slower on
    arguments below about -707.8 than above, and slowest where its result
    is subnormal. Lanes below log(tiny) (their result is subnormal or 0,
    -inf included) reach exp as 0 and are zeroed afterwards, so exp never
    sees them; every other lane, NaN included, keeps np.exp's bits.
    The result goes to ``out`` when given (``out=a`` overwrites a), else
    to a new array.
    """
    # masks multiply rather than select: np.where on a scattered mask costs
    # several times the exp it saves
    keep = a >= _LOG_TINY
    e = np.maximum(a, _LOG_TINY, out=out)
    e *= keep
    np.exp(e, out=e)
    e *= keep
    return e


def weighted_outer_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_ij (x_i - x_j)(x_i - x_j)^T without forming the outer products.

    Like pairwise_sq_dists, the rows are centred first: the sum does not
    depend on a common offset, but its two Gram terms cancel by that much.
    """
    x = x - x.mean(axis=0)
    s = w + w.T
    r = s.sum(axis=1)
    g = x.T @ (r[:, None] * x) - x.T @ (s @ x)
    return 0.5 * (g + g.T)


# -- neighborhood softmax (NCA) ---------------------------------------------

def _same_class(y: np.ndarray) -> np.ndarray:
    """n x n mask of pairs i != j with equal labels."""
    return (y[:, None] == y[None, :]) & ~np.eye(len(y), dtype=bool)


def nca_objective(l: np.ndarray, x: np.ndarray, y: np.ndarray, same=None):
    """Expected same-class softmax mass: (f, grad) with grad() -> gradient at l.

    ``same`` is ``_same_class(y)``; a fit builds it once and passes it in.
    """
    if same is None:
        same = _same_class(y)
    z = x @ l.T
    # one n x n buffer turns from distances to logits to probabilities
    logits = pairwise_sq_dists(z)
    np.negative(logits, out=logits)
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    # each row keeps its largest weight at exp(0) = 1, so dropping the
    # subnormal weights moves no p by more than n * tiny
    p = _exp_flushed(logits, out=logits)
    p /= p.sum(axis=1, keepdims=True)
    np.fill_diagonal(p, 0.0)
    p_same = p * same
    p_i = p_same.sum(axis=1)

    def grad():
        w = p * p_i[:, None]
        w -= p_same
        return 2.0 * l @ weighted_outer_sum(x, w)
    return float(p_i.sum()), grad


class NCA(MahalanobisEstimator):
    """Gradient-ascent learner maximizing stochastic same-class neighbor mass."""

    supervision = "labels"

    def __init__(self, n_components=None, init="identity", max_iter=100,
                 tol=1e-6, seed=0):
        self.n_components = n_components
        self.init = init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, x, y):
        x, y = self._check_fit(x, y)
        _check_two_classes(y)
        m = _resolve_components(self.n_components, x.shape[1])
        l0 = _init_transform(self.init, m, x.shape[1], self.seed)
        same = _same_class(y)
        l, report = backtracking_solve(
            lambda l_: nca_objective(l_, x, y, same), l0,
            max_iter=self.max_iter, tol=self.tol, maximize=True,
        )
        self._set_model(MahalanobisModel(l, algorithm="nca", fit_report=report))
        return self


# -- large margin nearest neighbors (LMNN) ----------------------------------

def lmnn_targets(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """k same-class Euclidean nearest neighbors per point, fixed before fitting.

    Distance ties go to the lower sample index (a stable sort of each row of
    the class block, without the point itself).
    """
    d2 = pairwise_sq_dists(x)
    targets = np.empty((len(x), k), dtype=int)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        if len(members) < k + 1:
            raise ValidationError(
                f"class {c!r} has {len(members)} members but k={k} target "
                f"neighbors require at least {k + 1}"
            )
        block = _off_diagonal(d2[np.ix_(members, members)])
        pos = np.argsort(block, axis=1, kind="stable")[:, :k]
        # a position at or past the dropped diagonal is one column further on
        pos += pos >= np.arange(len(members))[:, None]
        targets[members] = members[pos]
    return targets


def _lmnn_pull_outer(x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The pull term's scatter sum: ``weighted_outer_sum`` over the
    target-neighbor counts. It does not depend on the map, so a fit
    computes it once."""
    n = len(x)
    rows = np.arange(n)
    w_pull = np.zeros((n, n))
    for t in targets.T:
        w_pull[rows, t] += 1.0
    return weighted_outer_sum(x, w_pull)


def lmnn_objective(l: np.ndarray, x: np.ndarray, y: np.ndarray,
                   targets: np.ndarray, push_weight: float, margin: float,
                   differ=None, pull_outer=None):
    """Pull + hinge-push loss: (f, grad) with grad() -> (sub)gradient at l.

    The loss sums every hinge term, so it is a deterministic function of l;
    the gradient uses the impostor set active at l.

    The terms are gathered one target slot at a time: slot s pairs every
    point i with its target ``targets[i, s]`` and weighs the hinge against
    all n points at once, in one n x n buffer that every slot reuses, so no
    (n, k, n) block is built. Multiplying h by its active mask (h > 0 and a
    different class) leaves exactly 0 (or -0) on every inactive lane, so
    one unmasked sum adds the active terms; numpy's masked sum is several
    times slower. The pull and push weights are integer counts, so the
    gradient is exactly the one a per-point loop gives; only the summation
    order of the loss differs (last-bit changes). The closure keeps one
    boolean impostor mask per target slot (k n^2 bytes) and rebuilds the
    push weights from them. ``differ`` is the n x n mask
    ``y_i != y_j`` and ``pull_outer`` is ``_lmnn_pull_outer(x, targets)``;
    a fit builds both once.
    """
    if differ is None:
        differ = y[:, None] != y[None, :]
    z = x @ l.T
    d2 = pairwise_sq_dists(z)
    rows = np.arange(len(x))
    pull = 0.0
    push = 0.0
    masks = []
    h = np.empty_like(d2)
    for t in targets.T:
        dt = d2[rows, t]
        pull += float(np.sum(dt))
        np.subtract(margin + dt[:, None], d2, out=h)
        active = h > 0.0
        active &= differ
        h *= active
        push += float(h.sum())
        masks.append(active)

    def grad():
        outer = _lmnn_pull_outer(x, targets) if pull_outer is None else pull_outer
        n = len(x)
        w_push = np.zeros((n, n))
        for t, active in zip(targets.T, masks):
            w_push[rows, t] += np.count_nonzero(active, axis=1)
            w_push -= active
        g = (1.0 - push_weight) * outer \
            + push_weight * weighted_outer_sum(x, w_push)
        return 2.0 * l @ g
    return (1.0 - push_weight) * pull + push_weight * push, grad


class LMNN(MahalanobisEstimator):
    """Margin-based learner pulling target neighbors and pushing impostors."""

    supervision = "labels"

    def __init__(self, k=3, push_weight=0.5, margin=1.0, n_components=None,
                 init="identity", max_iter=100, tol=1e-6, seed=0):
        self.k = k
        self.push_weight = push_weight
        self.margin = margin
        self.n_components = n_components
        self.init = init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, x, y):
        x, y = self._check_fit(x, y)
        k = check_at_least("k", self.k, 1)
        _check_two_classes(y)
        if not 0.0 < self.push_weight < 1.0:
            raise ValidationError("push_weight must lie strictly in (0, 1)")
        targets = lmnn_targets(x, y, k)
        m = _resolve_components(self.n_components, x.shape[1])
        l0 = _init_transform(self.init, m, x.shape[1], self.seed)
        differ = y[:, None] != y[None, :]
        pull_outer = _lmnn_pull_outer(x, targets)
        l, report = backtracking_solve(
            lambda l_: lmnn_objective(l_, x, y, targets, self.push_weight,
                                      self.margin, differ, pull_outer),
            l0, max_iter=self.max_iter, tol=self.tol,
        )
        self._set_model(MahalanobisModel(l, algorithm="lmnn", fit_report=report))
        return self


# -- kernel-regression loss (MLKR) ------------------------------------------

def mlkr_objective(l: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Leave-one-out Nadaraya-Watson squared error: (f, grad) with grad() ->
    gradient at l."""
    z = x @ l.T
    # one n x n buffer turns from distances to kernel weights
    k = pairwise_sq_dists(z)
    np.fill_diagonal(k, np.inf)
    # each row is scaled by exp(its smallest distance), which cancels in
    # k / s: the nearest neighbour weighs 1, so s >= 1 and a row never
    # underflows whole, however far apart the points are
    np.subtract(k.min(axis=1, keepdims=True), k, out=k)
    _exp_flushed(k, out=k)
    s = k.sum(axis=1)
    yhat = (k @ y) / s
    r = yhat - y

    def grad():
        # ((-2 r / s)_i (y_j - yhat_i)) k_ij, left to right in one buffer
        w = np.subtract(y[None, :], yhat[:, None])
        w *= -2.0 * (r / s)[:, None]
        w *= k
        return 2.0 * l @ weighted_outer_sum(x, w)
    return float(np.sum(r * r)), grad


class MLKR(MahalanobisEstimator):
    """Metric learner minimizing leave-one-out kernel-regression error."""

    supervision = "labels"

    def __init__(self, n_components=None, init="identity", max_iter=100,
                 tol=1e-6, seed=0):
        self.n_components = n_components
        self.init = init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, x, y):
        x, y = self._check_fit(x, y)
        if y.dtype.kind not in "biuf":
            raise ValidationError("MLKR targets must be numbers")
        y = np.asarray(y, dtype=float)
        if len(x) < 3:
            raise ValidationError("need at least 3 samples")
        m = _resolve_components(self.n_components, x.shape[1])
        l0 = _init_transform(self.init, m, x.shape[1], self.seed)
        if np.ptp(y) == 0.0:
            warnings.warn(
                "degenerate regression targets: y is constant, loss is 0 for "
                "any transform; returning the initial transform",
                UserWarning,
            )
            self._set_model(MahalanobisModel(l0, algorithm="mlkr"))
            return self
        l, report = backtracking_solve(
            lambda l_: mlkr_objective(l_, x, y), l0,
            max_iter=self.max_iter, tol=self.tol,
        )
        self._set_model(MahalanobisModel(l, algorithm="mlkr", fit_report=report))
        return self


# -- local Fisher discriminant analysis (LFDA) ------------------------------

def _local_scaling(d2: np.ndarray, knn: int) -> np.ndarray:
    """sigma_i = distance to the knn-th same-class neighbor, capped at class size - 1.

    ``d2`` holds the squared distances within one class. A knn-th neighbor
    that coincides with point i gives no scale (the affinity would be 0/0):
    sigma_i is then the distance to i's nearest neighbor that does not, or 1
    when the whole class is one point. Neighbors closer than 1e-6 of the
    class diameter count as coinciding: the Gram formula leaves a few
    eps * diameter^2 of rounding in d2, so it cannot tell them apart.
    """
    kn = min(knn, len(d2) - 1)
    ranked = np.sort(_off_diagonal(d2), axis=1, kind="stable")
    s2 = ranked[:, kn - 1].copy()
    tol = 1e-12 * ranked[:, -1].max()
    coincide = s2 <= tol
    if coincide.any():
        rows = ranked[coincide]
        nearest = rows[np.arange(len(rows)), np.argmax(rows > tol, axis=1)]
        s2[coincide] = np.where(nearest > tol, nearest, 1.0)
    return np.sqrt(s2)


def _lfda_scatters(x: np.ndarray, y: np.ndarray, knn: int):
    """Local between- and within-class scatter matrices (s_between, s_within).

    Both are 1/2 sum_ij w_ij (x_i - x_j)(x_i - x_j)^T. Pairs from different
    classes weigh 1/n in the between-class scatter and 0 in the within-class
    one, so the between-class scatter starts as the total scatter of the
    centred data (every pair at 1/n) and each class block then corrects its
    own pairs. Nothing n x n is formed: memory is O(nd + max n_c^2).
    """
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s_between = xc.T @ xc
    s_within = np.zeros((d, d))
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        if len(members) < 2:
            raise ValidationError(
                f"degenerate class: class {c!r} has a single member"
            )
        xm = xc[members]
        d2 = pairwise_sq_dists(xm)
        sigma = _local_scaling(d2, knn)
        with np.errstate(over="ignore", under="ignore"):
            aff = np.exp(-d2 / np.outer(sigma, sigma))
        np.fill_diagonal(aff, 0.0)
        nc = len(members)
        s_within += 0.5 * weighted_outer_sum(xm, aff / nc)
        w = aff * (1.0 / n - 1.0 / nc) - 1.0 / n
        np.fill_diagonal(w, 0.0)
        s_between += 0.5 * weighted_outer_sum(xm, w)
    return s_between, s_within


class LFDA(MahalanobisEstimator):
    """Closed-form learner via the local Fisher generalized eigenproblem."""

    supervision = "labels"

    def __init__(self, n_components=None, knn=7, embedding="weighted"):
        self.n_components = n_components
        self.knn = knn
        self.embedding = embedding

    def fit(self, x, y):
        x, y = self._check_fit(x, y)
        knn = check_at_least("knn", self.knn, 1)
        _check_two_classes(y)
        if self.embedding not in ("weighted", "plain"):
            raise ValidationError("embedding must be 'weighted' or 'plain'")
        d = x.shape[1]
        m = _resolve_components(self.n_components, d)
        s_between, s_within = _lfda_scatters(x, y, knn)
        eps = 1e-9 * np.trace(s_within) / d
        res = gen_sym_eig(s_between, s_within + eps * np.eye(d), m)
        l = res.eigenvectors.T
        if self.embedding == "weighted":
            l = l * np.sqrt(np.clip(res.eigenvalues, 0.0, None))[:, None]
        obj = float(np.sum(res.eigenvalues))
        report = FitReport(True, 1, obj, (obj,))
        self._set_model(MahalanobisModel(l, algorithm="lfda", fit_report=report))
        return self


# -- chunklet whitening (RCA) ------------------------------------------------

class RCA(MahalanobisEstimator):
    """Whitens the pooled within-chunklet covariance (closed form).

    Chunklets are groups of points known to share a class; the assignment
    vector uses -1 for unassigned points. Chunklets with fewer than 2 members
    carry no constraint and are ignored.
    """

    supervision = "chunks"

    def __init__(self, reg=1e-8, n_components=None):
        self.reg = reg
        self.n_components = n_components

    def fit(self, x, chunks):
        x, chunks = self._check_fit(x, chunks)
        if chunks.dtype.kind not in "biuf":
            raise ValidationError(
                "chunklet ids must be numbers: -1 marks an unassigned point"
            )
        d = x.shape[1]
        if self.n_components is not None and self.n_components != d:
            raise ValidationError(
                "this learner does not reduce dimension: n_components must "
                f"equal n_features ({d})"
            )
        cov = np.zeros((d, d))
        count = 0
        for c in np.unique(chunks):
            if c < 0:
                continue
            members = np.flatnonzero(chunks == c)
            if len(members) < 2:
                continue
            centered = x[members] - x[members].mean(axis=0)
            cov += centered.T @ centered
            count += len(members)
        if count == 0:
            raise ValidationError(
                "no constraints: need at least one chunklet with 2 or more members"
            )
        cov /= count
        l = psd_sqrt(cov + self.reg * np.eye(d), invert=True)
        self._set_model(MahalanobisModel(l, algorithm="rca"))
        return self
