"""Weakly-supervised learners: pair-based MMC and ITML, quadruplet LSML.

MMC and ITML consume labeled pairs (+1 similar, -1 dissimilar); LSML consumes
quadruplets whose first pair should end up closer than the second. All three
optimize over the Mahalanobis matrix M directly and extract L as its
symmetric square-root factor at the end.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .base import (MahalanobisEstimator, PairClassifierMixin,
                   QuadrupletClassifierMixin)
from .exceptions import NumericalError, ValidationError
from .linalg import psd_project, psd_sqrt
from .model import FitReport
from .optimize import backtracking_solve

_EIG_FLOOR = 1e-10  # LSML's trial points keep every eigenvalue above it


def _split_pairs(pairs: np.ndarray, y: np.ndarray):
    """(similar differences, dissimilar differences) of gated pairs."""
    pos = pairs[y == 1, 0] - pairs[y == 1, 1]
    neg = pairs[y == -1, 0] - pairs[y == -1, 1]
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError(
            "degenerate constraints: need at least one +1 and one -1 pair"
        )
    return pos, neg


def _prior_matrix(prior: str, points: np.ndarray, d: int) -> np.ndarray:
    """Identity, or the regularized inverse covariance of the tuple points."""
    if prior == "identity":
        return np.eye(d)
    if prior == "covariance-inverse":
        centered = points - points.mean(axis=0)
        cov = centered.T @ centered / max(len(points), 1)
        reg = 1e-8 * np.trace(cov) / d if np.trace(cov) > 0 else 1e-8
        b = psd_sqrt(cov + reg * np.eye(d), invert=True)
        return b.T @ b
    raise ValidationError(
        f"unknown prior {prior!r}; expected 'identity' or 'covariance-inverse'"
    )


def _weighted_gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i x_i^T as a single matrix product."""
    return (x * w[:, None]).T @ x


def _quad_dists(diffs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sqrt(v^T m v) per row v of diffs, with negative forms clipped to 0."""
    return np.sqrt(np.maximum(np.sum((diffs @ m) * diffs, axis=1), 0.0))


# -- MMC ---------------------------------------------------------------------

def mmc_diag_objective(w: np.ndarray, pos2: np.ndarray, neg2: np.ndarray):
    """Diagonal-variant objective g(w): (f, grad) with grad() -> gradient at
    w; pos2/neg2 hold squared pair differences row-wise."""
    sim = float(np.sum(pos2 @ w))
    dis = np.sqrt(np.maximum(neg2 @ w, 0.0))
    total = float(np.sum(dis))
    if total <= 0.0:
        # infeasible trial point (all weight clipped away); reject via +inf
        return np.inf, lambda: np.zeros_like(w)

    def grad():
        safe = dis > 0.0
        return pos2.sum(axis=0) \
            - (neg2[safe] / (2.0 * dis[safe, None])).sum(axis=0) / total
    return sim - np.log(total), grad


def mmc_objective(m: np.ndarray, neg: np.ndarray):
    """Full-variant objective, the sum of dissimilar-pair distances under m:
    (f, grad) with grad() -> gradient at m; neg holds dissimilar pair
    differences row-wise."""
    dist = _quad_dists(neg, m)

    def grad():
        safe = dist > 0.0
        g = _weighted_gram(neg[safe], 0.5 / dist[safe])
        return 0.5 * (g + g.T)
    return float(np.sum(dist)), grad


class MMC(MahalanobisEstimator, PairClassifierMixin):
    """Clustering-style pair learner: keep similar pairs within a unit budget
    while spreading dissimilar pairs.

    The full variant runs gradient ascent on the sum of dissimilar
    distances, rescaling each trial point onto the similarity budget. No
    PSD cone projection is needed: the start is a multiple of the identity,
    the ascent direction sum_i (0.5 / d_i) v_i v_i^T is PSD (and exactly
    symmetric), and a rescale stays in the cone. The diagonal variant runs
    projected descent on the log-barrier form over nonnegative weights.
    """

    supervision = "pairs"

    def __init__(self, diagonal=False, max_iter=100, tol=1e-6):
        self.diagonal = diagonal
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, pairs, y):
        pos, neg = _split_pairs(*self._check_fit(pairs, y))
        # the similar pairs' total is the full variant's starting budget
        with np.errstate(over="ignore"):
            total_pos, neg_sq = np.sum(pos * pos), np.sum(neg * neg, axis=1)
        if not (np.isfinite(total_pos) and np.isfinite(neg_sq).all()):
            raise NumericalError("pair differences overflow: their squared "
                                 "norms, or the similar pairs' total, are not "
                                 "finite (rescale the features)")
        if not np.any(neg_sq > 0.0):
            raise NumericalError(
                "all dissimilar pairs coincide: log of zero distance"
            )
        if self.diagonal:
            self._set_model(*self._fit_diagonal(pos, neg))
        else:
            self._set_model(*self._fit_full(pos, neg, total_pos))
        return self

    def _fit_diagonal(self, pos, neg):
        d = pos.shape[1]
        pos2, neg2 = pos * pos, neg * neg
        w0 = np.ones(d)
        w, report = backtracking_solve(
            lambda w_: mmc_diag_objective(w_, pos2, neg2), w0,
            max_iter=self.max_iter, tol=self.tol,
            project=lambda w_: np.clip(w_, 0.0, None),
        )
        return np.diag(np.sqrt(w)), report

    def _fit_full(self, pos, neg, total_pos):
        d = pos.shape[1]

        # the similar pairs' total at m; total_pos is its value at the identity
        def project(m):
            s = float(np.sum((pos @ m) * pos))
            return m / s if s > 1.0 else m

        m0 = np.eye(d) / total_pos if total_pos > 0 else np.eye(d)
        m, report = backtracking_solve(
            lambda m_: mmc_objective(m_, neg), m0,
            max_iter=self.max_iter, tol=self.tol,
            maximize=True, project=project,
        )
        return psd_sqrt(m), report


# -- ITML --------------------------------------------------------------------

def itml_bounds(pairs, percentiles) -> tuple[float, float]:
    """Similarity/dissimilarity bounds on squared Euclidean pair distances."""
    try:
        low, high = percentiles
    except (TypeError, ValueError):
        low = high = None
    if not all(isinstance(p, numbers.Real) and not isinstance(p, bool)
               for p in (low, high)):
        raise ValidationError(
            f"percentiles must be two numbers (low, high), got {percentiles!r}")
    if not 0 <= low < high <= 100:
        raise ValidationError("percentiles must satisfy 0 <= low < high <= 100")
    pairs = np.asarray(pairs, dtype=float)
    d2 = np.sum((pairs[:, 0] - pairs[:, 1]) ** 2, axis=1)
    # np.percentile is monotone in q, so low < high gives u <= l
    u, l = np.percentile(d2, (low, high))
    # zero bounds would break the multiplicative updates
    return max(float(u), 1e-9), max(float(l), 1e-9)


def _bregman_step(wtw, lam, bound, similar, gamma, gamma_proj):
    """(alpha, beta, new bound) of one constraint's Bregman projection, where
    wtw is the constraint's squared distance under the current M."""
    if similar:
        alpha = min(lam, gamma_proj * (1.0 / wtw - 1.0 / bound))
        return (alpha, alpha / (1.0 - alpha * wtw),
                1.0 / (1.0 / bound + alpha / gamma))
    alpha = min(lam, gamma_proj * (1.0 / bound - 1.0 / wtw))
    return (alpha, -alpha / (1.0 + alpha * wtw),
            1.0 / (1.0 / bound - alpha / gamma))


class ITML(MahalanobisEstimator, PairClassifierMixin):
    """Bregman-projection pair learner anchored to a prior metric.

    Cycles through the pair constraints, applying to each a rank-one
    multiplicative update of M that enforces the (slack-adjusted) distance
    bound while moving minimally in LogDet divergence. gamma controls the
    slack: larger values enforce the bounds more strictly. A constraint that
    is already satisfied with a zero multiplier costs one quadratic form and
    no rank-one update. If the updates overflow (a huge gamma, or a pair
    distance whose square or reciprocal is not finite), M turns non-finite
    and ``fit`` raises :class:`NumericalError`.
    """

    supervision = "pairs"

    def __init__(self, gamma=1.0, percentiles=(5, 95), prior="identity",
                 max_iter=100, tol=1e-6):
        self.gamma = gamma
        self.percentiles = percentiles
        self.prior = prior
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, pairs, y):
        deltas = []
        for a, delta in self._cycles(*self._check_fit(pairs, y)):
            if delta is not None:
                deltas.append(delta)
        if not np.all(np.isfinite(a)):
            raise NumericalError(
                "ITML diverged: the Bregman updates left non-finite entries "
                "in M (lower gamma or rescale the features)"
            )
        converged = bool(deltas) and deltas[-1] <= self.tol
        trace = tuple(deltas) if deltas else (0.0,)
        # the updates keep M positive definite only in exact arithmetic
        self._set_model(psd_sqrt(psd_project(a)),
                        FitReport(converged, len(trace), trace[-1], trace))
        return self

    def _cycles(self, pairs, y):
        """Yield (M, multiplier change) for gated pairs: first the prior with
        change None, then one entry per full cycle."""
        pos, neg = _split_pairs(pairs, y)
        d = pos.shape[1]
        u, l = itml_bounds(pairs, self.percentiles)
        self.bounds_ = (u, l)
        gamma = self.gamma
        if gamma <= 0:
            raise ValidationError("gamma must be > 0")
        gamma_proj = gamma / (gamma + 1.0)
        # + 0.0 copies the prior and turns any -0.0 into +0.0 (np.eye and
        # numpy's b^T b hold none). The rank-one updates and the
        # symmetrisation of an exactly symmetric M never make a -0.0,
        # which the skip below relies on
        a = _prior_matrix(self.prior, pairs.reshape(-1, d), d) + 0.0
        vecs = np.vstack([pos, neg])
        n_pos = len(pos)
        # the per-constraint state is Python floats: scalar arithmetic on
        # them gives numpy's bits at a fraction of its dispatch cost
        lam = [0.0] * len(vecs)
        bhat = [u] * n_pos + [l] * len(neg)
        self.adjusted_bounds_ = np.array(bhat)
        self.n_pos_constraints_ = n_pos
        buf = np.empty((d, d))
        yield a, None
        for _ in range(self.max_iter):
            lam_old = lam.copy()
            for i, v in enumerate(vecs):
                wtw = float(v.dot(a).dot(v))
                if wtw <= 0.0:
                    continue
                try:
                    alpha, beta, bhat[i] = _bregman_step(
                        wtw, lam[i], bhat[i], i < n_pos, gamma, gamma_proj)
                except ZeroDivisionError:
                    # a bound or a denominator is 0: numpy scalars give
                    # inf or nan with a RuntimeWarning where Python floats
                    # raise
                    alpha, beta, bhat[i] = _bregman_step(
                        np.float64(wtw), np.float64(lam[i]),
                        np.float64(bhat[i]), i < n_pos, gamma, gamma_proj)
                lam[i] -= alpha
                if alpha == 0.0 and math.isfinite(wtw):
                    # beta is +-0, and a.dot(v) is finite: it holds the
                    # sums v.dot(a) holds, whose dot with v gave the finite
                    # wtw. The update would add +-0 to every entry of M,
                    # which holds no -0.0: a no-op
                    continue
                av = a.dot(v)
                np.multiply(av[:, None], av, out=buf)
                buf *= beta
                a += buf
            a = 0.5 * (a + a.T)
            # np.max, unlike max(), returns nan when any change is nan
            delta = float(np.max(np.abs(np.subtract(lam, lam_old))))
            self.adjusted_bounds_ = np.array(bhat)
            yield a, delta
            if delta <= self.tol:
                break


# -- LSML --------------------------------------------------------------------

def lsml_objective(m: np.ndarray, diffs_close: np.ndarray, diffs_far: np.ndarray,
                   m0inv: np.ndarray, logdet_m0: float, reg: float):
    """Squared-residual hinge over quadruplets plus LogDet anchoring to the
    prior: (f, grad) with grad() -> gradient at m, which treats the hinge
    active set at m as fixed. f is +inf where det m <= 0, since the LogDet
    divergence is infinite off the positive-definite cone."""
    d = m.shape[0]
    sign, logdet_m = np.linalg.slogdet(m)
    if sign <= 0:
        return np.inf, lambda: np.zeros_like(m)
    smooth = reg * (float(np.trace(m @ m0inv)) - (float(logdet_m) - logdet_m0)
                    - d)
    d_close = _quad_dists(diffs_close, m)
    d_far = _quad_dists(diffs_far, m)
    viol = np.maximum(d_close - d_far, 0.0)

    def grad():
        close = (viol > 0.0) & (d_close > 0.0)
        far = (viol > 0.0) & (d_far > 0.0)
        g = (reg * (m0inv - np.linalg.inv(m))
             + _weighted_gram(diffs_close[close], viol[close] / d_close[close])
             - _weighted_gram(diffs_far[far], viol[far] / d_far[far]))
        return 0.5 * (g + g.T)
    return smooth + float(np.sum(viol * viol)), grad


class LSML(MahalanobisEstimator, QuadrupletClassifierMixin):
    """Quadruplet learner minimizing squared residuals of ordering violations."""

    supervision = "quads"

    def __init__(self, reg=1.0, prior="identity", max_iter=100, tol=1e-6):
        self.reg = reg
        self.prior = prior
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, quads, y=None):
        quads, _ = self._check_fit(quads, y)
        if len(quads) == 0:
            raise ValidationError("need at least one quadruplet")
        if self.reg < 0:
            raise ValidationError("reg must be >= 0")
        d = quads.shape[2]
        m0 = _prior_matrix(self.prior, quads.reshape(-1, d), d)
        if not np.all(np.isfinite(m0)):
            raise NumericalError("prior matrix has non-finite entries: an "
                                 "overflow (rescale the features)")
        sign, logdet_m0 = np.linalg.slogdet(m0)
        if sign <= 0:
            raise ValidationError("invalid prior: log-determinant is not finite")
        m0inv = np.linalg.inv(m0)
        m0inv = 0.5 * (m0inv + m0inv.T)
        diffs_close = quads[:, 0] - quads[:, 1]
        diffs_far = quads[:, 2] - quads[:, 3]
        # the nearest matrix whose eigenvalues are all >= the floor
        floor = _EIG_FLOOR * np.eye(d)
        m, report = backtracking_solve(
            lambda m_: lsml_objective(m_, diffs_close, diffs_far, m0inv,
                                      float(logdet_m0), self.reg),
            m0, max_iter=self.max_iter, tol=self.tol,
            project=lambda m_: floor + psd_project(m_ - floor),
        )
        self._set_model(psd_sqrt(m), report)
        return self
