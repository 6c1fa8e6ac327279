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
from .model import _BLOCK, FitReport
from .modelsel import _k_nearest
from .optimize import backtracking_solve
from .rng import SplitMix64
from .tuples import class_blocks


def _init_transform(init: str, n_components: int, n_features: int, seed: int):
    if init == "identity":
        return np.eye(n_features)[:n_components].copy()
    # "random": uniform in [-1, 1) from the top 53 bits of each SplitMix64 draw
    bits = SplitMix64(seed).draws(n_components * n_features) >> np.uint64(11)
    u = bits.astype(float) * 2.0 ** -52 - 1.0
    return u.reshape(n_components, n_features) / np.sqrt(n_features)


def _resolve_components(n_components, n_features: int) -> int:
    m = n_features if n_components is None else n_components
    if not 1 <= m <= n_features:
        raise ValidationError(
            f"n_components must be in [1, {n_features}], got {m}"
        )
    return m


def _centred_gram(z: np.ndarray):
    """(sq, g): the squared norms and the n x n Gram matrix of the centred
    rows of z.

    The rows are centred first: the Gram formula |a|^2 + |b|^2 - 2 a.b
    cancels catastrophically when the rows sit far from the origin, and
    distances do not depend on a common offset.

    ``g`` is written in place by two products of all n rows with row blocks:
    the first h rows (h the largest multiple of the map kernel's ``_BLOCK``
    = 64 below n) and the last 64, which rewrite the columns the two share
    (n <= 64 rows are zero-padded to 64). Every call's count of g's columns is thus a multiple
    of 64, as in the map kernel's fixed-shape rule (``model._mapped_chunks``):
    no column falls to an OpenBLAS edge kernel, whose rows round differently
    when the rows are split between threads, so the bits do not depend on
    the thread count. Those of syrk (numpy's product of z with its own
    transpose) do, and so do those of 64-row blocks against all n columns.
    Two calls, not one per block, stay fast when other processes hold the
    CPUs and the BLAS threads wait to be scheduled. No caller needs g
    exactly symmetric, and finiteness is not judged here: a solver's trial
    point may give a non-finite value, which the solver then rejects.
    """
    z = z - z.mean(axis=0)
    sq = np.einsum("ij,ij->i", z, z)
    n, c = z.shape
    if n <= _BLOCK:
        padded = np.zeros((_BLOCK, c))
        padded[:n] = z
        return sq, np.matmul(z, padded.T)[:, :n].copy()
    g = np.empty((n, n))
    h = (n - 1) // _BLOCK * _BLOCK
    np.matmul(z, z[:h].T, out=g[:, :h])
    np.matmul(z, z[n - _BLOCK:].T, out=g[:, n - _BLOCK:])
    return sq, g


def pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of z (zero diagonal).

    The distances are finished inside the ``_centred_gram`` result,
    ``_BLOCK`` rows at a time, so the pass holds one n x n array and a
    block-sized temporary; the operations and their order are those of the
    one-line formula ``max((|a|^2 + |b|^2) - 2 g, 0)``, so the bits are too.
    """
    sq, d2 = _centred_gram(z)
    for start in range(0, len(z), _BLOCK):
        block = d2[start:start + _BLOCK]
        block *= 2.0
        np.subtract(np.add(sq[start:start + _BLOCK, None], sq), block, out=block)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


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


def _neighbour_weights(z: np.ndarray) -> np.ndarray:
    """exp(min_k e_ik - e_ij) with e_ij = |z_j|^2 - 2 z_i.z_j, 0 on the diagonal.

    A softmax or kernel row is unchanged by a constant added to the row, so
    the weights of the distances |z_i - z_j|^2 = |z_i|^2 + e_ij need no
    |z_i|^2 and no distance is formed. Each row is shifted by its smallest
    off-diagonal logit, so its nearest neighbour weighs exp(0) = 1, the row
    sum is at least 1 and no row underflows whole, however far apart the
    points are. The diagonal is +inf before the shift, so exp leaves it +0.
    One n x n buffer, the Gram product's, turns into the weights in place.
    """
    sq, e = _centred_gram(z)
    e *= 2.0
    np.subtract(sq, e, out=e)
    np.fill_diagonal(e, np.inf)
    np.subtract(e.min(axis=1, keepdims=True), e, out=e)
    return _exp_flushed(e, out=e)


def weighted_outer_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_ij (x_i - x_j)(x_i - x_j)^T without forming the outer products.

    It is x^T diag(r) x - (H + H^T) with r the row plus column sums of w
    and H = x^T w x, so w is read as it is, with no n x n copy. Like
    ``_centred_gram``, the rows are centred first: the sum does not depend
    on a common offset, but its two Gram terms cancel by that much.
    """
    x = x - x.mean(axis=0)
    r = w.sum(axis=1) + w.sum(axis=0)
    h = x.T @ (w @ x)
    g = x.T @ (r[:, None] * x) - (h + h.T)
    return 0.5 * (g + g.T)


def _class_sorted(x: np.ndarray, y: np.ndarray):
    """(x, y, blocks): the rows grouped by ``tuples.class_blocks``, one slice
    of rows per class, so every same-class pair lies in a diagonal block
    ``[b, b]`` and no n x n class mask is needed. Each class keeps its rows
    in their given order, so index tie rules within a class hold."""
    labels, _, order, blocks = class_blocks(y)
    if len(labels) < 2:
        raise ValidationError("degenerate labels: need at least 2 distinct classes")
    return x[order], y[order], blocks


# -- neighborhood softmax (NCA) ---------------------------------------------

def nca_objective(l: np.ndarray, x: np.ndarray, blocks: list):
    """Expected same-class softmax mass: (f, grad) with grad() -> gradient at l.

    The rows of x are sorted by class and ``blocks`` holds one slice per
    class (``_class_sorted``), so p_i, the mass of point i's own class, is
    a row sum within its diagonal block.
    """
    # each row keeps its largest weight at exp(0) = 1, so dropping the
    # subnormal weights moves no p by more than n * tiny; the diagonal is
    # +0, and so stays through the division and adds nothing to p_i
    p = _neighbour_weights(x @ l.T)
    p /= p.sum(axis=1, keepdims=True)
    p_i = np.concatenate([p[b, b].sum(axis=1) for b in blocks])

    def grad():
        w = p * p_i[:, None]
        for b in blocks:
            w[b, b] -= p[b, b]
        return 2.0 * l @ weighted_outer_sum(x, w)
    return float(p_i.sum()), grad


class NCA(MahalanobisEstimator):
    """Gradient-ascent learner maximizing stochastic same-class neighbor mass;
    ``fit(x, y)`` takes points x (n, d) and one class label per point in y."""

    supervision = "labels"

    def __init__(self, n_components=None, init="identity", max_iter=100,
                 tol=1e-6, seed=0):
        self.n_components = n_components
        self.init = init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def _fit(self, x, y):
        x, _, blocks = _class_sorted(x, y)
        m = _resolve_components(self.n_components, x.shape[1])
        l0 = _init_transform(self.init, m, x.shape[1], self.seed)
        return backtracking_solve(
            lambda l_: nca_objective(l_, x, blocks), l0,
            max_iter=self.max_iter, tol=self.tol, maximize=True,
        )


# -- large margin nearest neighbors (LMNN) ----------------------------------

def lmnn_targets(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """k same-class Euclidean nearest neighbors per point, fixed before fitting.

    ``modelsel._k_nearest``, the package's exact k-NN search, gives each
    point its k + 1 nearest class members in (distance, index) order, so
    distance ties go to the lower sample index. The point itself is
    dropped, or the last of them when more than k coinciding members
    precede it. No n x n array is formed, and k is checked, as an integer
    >= 1 and then against the smallest class, before anything is allocated.
    """
    check_at_least("k", k, 1)
    classes, codes, order, blocks = class_blocks(y)
    counts = np.bincount(codes)
    if counts.min() < k + 1:
        # a plain label, which prints as 0, not np.int64(0)
        label = classes.tolist()[counts.argmin()]
        raise ValidationError(
            f"class {label!r} has {counts.min()} members but "
            f"k={k} target neighbors require at least {k + 1}"
        )
    targets = np.empty((len(x), k), dtype=int)
    for b in blocks:
        members = order[b]
        xm = x[members]
        for rows, near in _k_nearest(xm, xm, k + 1):
            own = near == np.arange(rows.start, rows.start + len(near))[:, None]
            own[:, k] |= ~own.any(axis=1)
            targets[members[rows]] = members[near[~own].reshape(-1, k)]
    return targets


def lmnn_objective(l: np.ndarray, x: np.ndarray, targets: np.ndarray,
                   push_weight: float, margin: float, blocks: list):
    """Pull + hinge-push loss: (f, grad) with grad() -> (sub)gradient at l.

    The loss sums every hinge term, so it is a deterministic function of l;
    the gradient uses the impostor set active at l. The rows of x are
    sorted by class, one slice per class in ``blocks`` (``_class_sorted``).

    The terms are gathered one target slot at a time: slot s pairs every
    point i with its target ``targets[i, s]`` and weighs the hinge against
    all n points at once, in one n x n buffer that every slot reuses, so no
    (n, k, n) block is built. Multiplying h by its active mask (h > 0 and
    outside i's class block) leaves exactly 0 (or -0) on every inactive
    lane, so one unmasked sum adds the active terms; numpy's masked sum is
    several times slower. The closure keeps one boolean impostor mask per target
    slot (k n^2 bytes) and rebuilds the push counts from them; they are
    integers, so they do not depend on the order the terms are gathered
    in. Scaled by ``push_weight``, they take the pull weight 1 - push_weight
    on each target pair, and one scatter sum gives the gradient.
    """
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
        for b in blocks:
            active[b, b] = False
        h *= active
        push += float(h.sum())
        masks.append(active)

    def grad():
        n = len(x)
        w = np.zeros((n, n))
        for t, active in zip(targets.T, masks):
            w[rows, t] += np.count_nonzero(active, axis=1)
            w -= active
        w *= push_weight
        for t in targets.T:
            w[rows, t] += 1.0 - push_weight
        return 2.0 * l @ weighted_outer_sum(x, w)
    return (1.0 - push_weight) * pull + push_weight * push, grad


class LMNN(MahalanobisEstimator):
    """Margin-based learner pulling target neighbors and pushing impostors;
    ``fit(x, y)`` takes points x (n, d) and one class label per point in y."""

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

    def _fit(self, x, y):
        x, y, blocks = _class_sorted(x, y)
        targets = lmnn_targets(x, y, self.k)
        m = _resolve_components(self.n_components, x.shape[1])
        l0 = _init_transform(self.init, m, x.shape[1], self.seed)
        return backtracking_solve(
            lambda l_: lmnn_objective(l_, x, targets, self.push_weight,
                                      self.margin, blocks),
            l0, max_iter=self.max_iter, tol=self.tol,
        )


# -- kernel-regression loss (MLKR) ------------------------------------------

def mlkr_objective(l: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Leave-one-out Nadaraya-Watson squared error: (f, grad) with grad() ->
    gradient at l."""
    # each row's scale cancels in k / s
    k = _neighbour_weights(x @ l.T)
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
    """Metric learner minimizing leave-one-out kernel-regression error;
    ``fit(x, y)`` takes points x (n, d) and one numeric target per point in y."""

    supervision = "labels"

    def __init__(self, n_components=None, init="identity", max_iter=100,
                 tol=1e-6, seed=0):
        self.n_components = n_components
        self.init = init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def _fit(self, x, y):
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
            return l0, FitReport()
        return backtracking_solve(
            lambda l_: mlkr_objective(l_, x, y), l0,
            max_iter=self.max_iter, tol=self.tol,
        )


# -- local Fisher discriminant analysis (LFDA) ------------------------------

def _local_scaling(d2: np.ndarray, knn: int) -> np.ndarray:
    """sigma_i = distance to the knn-th same-class neighbor, capped at class size - 1.

    ``d2`` holds the squared distances within one class. A knn-th neighbor
    that coincides with point i gives no scale (the affinity would be 0/0):
    sigma_i is then the distance to i's nearest neighbor that does not, or 1
    when the whole class is one point. Neighbors closer than 1e-6 of the
    class diameter count as coinciding: the Gram formula leaves a few
    eps * diameter^2 of rounding in d2, so it cannot tell them apart.

    The knn-th value is selected (O(m^2), no O(m^2 log m) row sort; NaN
    goes last as in a sort); only rows whose knn-th neighbor coincides are
    sorted. The rows keep their diagonal: it is 0 and no distance is below
    0, so it sorts first and the knn-th neighbor sits at position knn.
    """
    kn = min(knn, len(d2) - 1)
    ranked = np.partition(d2, kn, axis=1)
    s2 = ranked[:, kn]
    tol = 1e-12 * ranked.max()
    coincide = s2 <= tol
    if coincide.any():
        rows = np.sort(ranked[coincide], axis=1)
        nearest = rows[np.arange(len(rows)), np.argmax(rows > tol, axis=1)]
        s2[coincide] = np.where(nearest > tol, nearest, 1.0)
    return np.sqrt(s2)


def _lfda_scatters(x: np.ndarray, y: np.ndarray, knn: int):
    """Local between- and within-class scatter matrices (s_between, s_within).

    Both are 1/2 sum_ij w_ij (x_i - x_j)(x_i - x_j)^T. Pairs from different
    classes weigh 1/n in the between-class scatter and 0 in the within-class
    one, so the between-class scatter starts as the total scatter of the
    centred data (every pair at 1/n) and each class block then corrects its
    own pairs. With S = sum_ij a_ij (x_i - x_j)(x_i - x_j)^T over a class's
    affinity a (0 on the diagonal), the weights a_ij / n_c give S / (2 n_c)
    and a_ij (1/n - 1/n_c) - 1/n (i != j) give 1/2 (1/n - 1/n_c) S - (n_c/n) C,
    C the class scatter about its mean, as sum_{i != j} of the outer
    products is 2 n_c C. Nothing n x n is formed: memory is O(nd + max n_c^2).
    """
    labels, _, order, blocks = class_blocks(y)
    if len(labels) < 2:
        raise ValidationError("degenerate labels: need at least 2 distinct classes")
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s_between = xc.T @ xc
    s_within = np.zeros((d, d))
    # plain labels, which an error message prints as 0, not np.int64(0)
    for c, b in zip(labels.tolist(), blocks):
        xm = xc[order[b]]
        nc = len(xm)
        if nc < 2:
            raise ValidationError(
                f"degenerate class: class {c!r} has a single member"
            )
        # the affinity exp(-d2_ij / (sigma_i sigma_j)), formed in d2's buffer
        aff = pairwise_sq_dists(xm)
        sigma = _local_scaling(aff, knn)
        with np.errstate(over="ignore", under="ignore"):
            np.divide(aff, np.outer(sigma, sigma), out=aff)
            np.exp(np.negative(aff, out=aff), out=aff)
        np.fill_diagonal(aff, 0.0)
        s_aff = weighted_outer_sum(xm, aff)
        s_within += s_aff / (2 * nc)
        centred = xm - xm.mean(axis=0)
        s_between += 0.5 * (1.0 / n - 1.0 / nc) * s_aff \
            - (nc / n) * (centred.T @ centred)
    return s_between, s_within


class LFDA(MahalanobisEstimator):
    """Closed-form learner via the local Fisher generalized eigenproblem;
    ``fit(x, y)`` takes points x (n, d) and one class label per point in y."""

    supervision = "labels"

    def __init__(self, n_components=None, knn=7, embedding="weighted"):
        self.n_components = n_components
        self.knn = knn
        self.embedding = embedding

    def _fit(self, x, y):
        d = x.shape[1]
        m = _resolve_components(self.n_components, d)
        s_between, s_within = _lfda_scatters(x, y, self.knn)
        eps = 1e-9 * np.trace(s_within) / d
        res = gen_sym_eig(s_between, s_within + eps * np.eye(d), m)
        l = res.eigenvectors.T
        if self.embedding == "weighted":
            l = l * np.sqrt(np.clip(res.eigenvalues, 0.0, None))[:, None]
        obj = float(np.sum(res.eigenvalues))
        return l, FitReport(True, 1, obj, (obj,))


# -- chunklet whitening (RCA) ------------------------------------------------

class RCA(MahalanobisEstimator):
    """Whitens the pooled within-chunklet covariance (closed form).

    ``fit(x, y)``: x holds the points (n, d), y one numeric chunklet id per
    point. Chunklets are groups of points known to share a class; -1 marks
    an unassigned point. Chunklets with fewer than 2 members carry no
    constraint and are ignored.
    """

    supervision = "chunks"

    def __init__(self, reg=1e-8):
        self.reg = reg

    def _fit(self, x, chunks):
        if chunks.dtype.kind not in "biuf":
            raise ValidationError(
                "chunklet ids must be numbers: -1 marks an unassigned point"
            )
        d = x.shape[1]
        cov = np.zeros((d, d))
        count = 0
        labels, _, order, blocks = class_blocks(chunks)
        for c, b in zip(labels, blocks):
            members = order[b]
            if c < 0 or len(members) < 2:
                continue
            centered = x[members] - x[members].mean(axis=0)
            cov += centered.T @ centered
            count += len(members)
        if count == 0:
            raise ValidationError(
                "no constraints: need at least one chunklet with 2 or more members"
            )
        cov /= count
        return psd_sqrt(cov + self.reg * np.eye(d), invert=True), FitReport()
