"""Dense symmetric linear algebra used by the learners.

Everything here operates on small dense symmetric matrices (feature-space
scatter and Mahalanobis matrices, a few hundred rows at most). The
eigensolver is LAPACK via ``numpy.linalg.eigh``, with a deterministic
ordering and sign convention added on top. On top of it sit the PSD cone
projection, symmetric (inverse) square roots, and the generalized symmetric
eigenproblem via whitening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConditioningError,
    DimensionError,
    NumericalError,
    RankError,
    SymmetryError,
    ValidationError,
)

_SYMMETRY_TOL = 1e-9         # relative elementwise asymmetry allowed
_RANK_RTOL = 1e-10           # pseudo-inverse cutoff relative to lambda_max


@dataclass(frozen=True)
class SymEigResult:
    """Spectral decomposition with eigenvalues sorted descending.

    ``eigenvectors`` holds unit-norm eigenvectors as columns, aligned with
    ``eigenvalues``. Each eigenvector is oriented so its largest-magnitude
    entry is positive, which makes serialized models reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        # only the package's own results reach here: an overflow, not bad input
        raise NumericalError("matrix contains non-finite entries: an overflow")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if np.max(np.abs(a - a.T), initial=0.0) > _SYMMETRY_TOL * max(scale, 1e-300):
        raise SymmetryError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def _orient_columns(v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return v
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(peak < 0, -v, v)


def sym_eig(a) -> SymEigResult:
    """Full spectral decomposition of a symmetric matrix (LAPACK ``eigh``).

    Raises :class:`NumericalError` if the LAPACK routine fails to converge.
    """
    b = _check_symmetric(a)
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed for a {b.shape[0]}x{b.shape[0]} matrix: {exc}"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    return SymEigResult(vals[order], _orient_columns(vecs[:, order]))


def psd_project(a) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clipping)."""
    r = sym_eig(a)
    w = np.clip(r.eigenvalues, 0.0, None)
    m = (r.eigenvectors * w) @ r.eigenvectors.T
    return 0.5 * (m + m.T)


def psd_sqrt(a, invert: bool = False) -> np.ndarray:
    """Symmetric-factor square root B of a PSD matrix, with B^T B = a.

    With ``invert=True`` returns B with B^T B equal to the pseudo-inverse of
    ``a`` on its range; eigenvalues below 1e-10 times the largest are treated
    as zero. Small negative eigenvalues (within -1e-9 of the largest
    magnitude) are clipped to zero; anything more negative is rejected.
    """
    r = sym_eig(a)
    w = r.eigenvalues
    wmax = float(np.max(np.abs(w), initial=0.0))
    if w.size and w[-1] < -1e-9 * max(wmax, 1e-300):
        raise ValidationError(
            f"matrix is not positive semidefinite (min eigenvalue {w[-1]:g})"
        )
    w = np.clip(w, 0.0, None)
    if invert:
        if wmax == 0.0 or np.all(w <= 0.0):
            raise RankError("cannot invert a matrix with an all-zero spectrum")
        cutoff = _RANK_RTOL * float(w[0])
        scale = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    else:
        scale = np.sqrt(w)
    return scale[:, None] * r.eigenvectors.T


def gen_sym_eig(b, w, k: int) -> SymEigResult:
    """Top-k eigenpairs of the pencil b v = lambda w v, w positive definite.

    Solved by whitening: with C the inverse symmetric square-root factor of
    ``w``, the pencil reduces to an ordinary symmetric problem for C b C^T and
    the eigenvectors map back through C^T (then renormalized).
    """
    b = _check_symmetric(b)
    w = _check_symmetric(w)
    if b.shape != w.shape:
        raise DimensionError(f"shape mismatch: {b.shape} vs {w.shape}")
    if not 1 <= k <= b.shape[0]:
        raise ValidationError(f"k={k} out of range for {b.shape[0]}x{b.shape[0]} pencil")
    rw = sym_eig(w)
    wmax = float(np.max(rw.eigenvalues, initial=0.0))
    if wmax <= 0.0 or rw.eigenvalues[-1] <= 1e-12 * wmax:
        raise ConditioningError(
            "weight matrix is not positive definite; add regularization"
        )
    c = (1.0 / np.sqrt(rw.eigenvalues))[:, None] * rw.eigenvectors.T
    s = c @ b @ c.T
    rs = sym_eig(0.5 * (s + s.T))
    vals = rs.eigenvalues[:k].copy()
    vecs = c.T @ rs.eigenvectors[:, :k]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    return SymEigResult(vals, _orient_columns(vecs))
