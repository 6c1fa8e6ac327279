"""The learned-metric model: a linear map L plus prediction semantics.

A :class:`MahalanobisModel` wraps the transformation matrix ``L`` of shape
(n_components, n_features). The distance between two points is the Euclidean
distance after mapping through ``L``; equivalently the quadratic form under
M = L^T L. Distances are always reported non-squared; squared distances are
an internal detail of the solvers.

Every row mapped through ``L`` goes through one map kernel,
:func:`_mapped_chunks`. ``transform`` maps points with it (and
``knn_predict`` maps through ``transform``); :func:`_distances` maps
difference rows with it, so that ``score_pairs``, ``get_metric`` (a batch of
one), every predict method and ``calibrate_threshold`` agree bit for bit,
which makes serialization round trips exactly reproducible. The kernel must
give a row the same bits whatever batch it sits in. A flat BLAS product such
as ``x @ L.T`` does not: OpenBLAS picks its blocking, kernels and thread
split from the matrix shape, so a row can round differently alone than inside
a larger batch. The kernel therefore makes every BLAS call with one shape:
the rows are cut into zero-padded blocks of ``_BLOCK`` rows and mapped by one
stacked ``matmul``, a (``_BLOCK``, d) @ (d, c) product per block. With the
shape fixed, BLAS runs the same code for every block, and a row's dot
products do not read the other rows of its block, so its bits depend on
neither its neighbours nor its place in the block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError, check_at_least
from .linalg import sym_eig
from .tuples import _as_features, _as_floats, validate_tuples


@dataclass(frozen=True)
class FitReport:
    """Convergence record of a fit: flag, iterations, objective trace."""

    converged: bool = True
    n_iter: int = 1
    final_objective: float = 0.0
    objective_trace: tuple = field(default=(0.0,))


# rows per fixed-shape product (see _mapped_chunks for why a multiple of 16)
_BLOCK = 64
# rows per pass through the reused row buffer (a multiple of _BLOCK), so the
# kernel's memory does not grow with the number of rows
_CHUNK = 4096


def _mapped_chunks(components: np.ndarray, a: np.ndarray,
                   b: np.ndarray | None = None):
    """Yield ``(rows, z)`` per chunk: ``z`` holds ``a[rows] @ L.T``, or
    ``(a - b)[rows] @ L.T`` when ``b`` is given, for a slice ``rows`` of up to
    ``_CHUNK`` of the n rows of ``a`` (n, d).

    Each chunk is copied (or subtracted) into one reused buffer whose last
    ``_BLOCK``-row block is zero-padded, and mapped by one stacked
    (``_BLOCK``, d) @ (d, c) ``matmul`` into a reused output buffer, so ``z``
    is only valid until the next chunk. Every BLAS call has the same shape
    and layout, so a row's image has the same bits in any batch and at any
    position (see the module docstring). ``_BLOCK`` is a multiple of 16,
    which every OpenBLAS dgemm row unroll divides, so all rows of a block go
    through the same micro-kernel and none falls to an edge kernel. numpy
    hands c = 1 to gemv and d = 1 to its own loop; those are fixed-shape too.
    """
    n, d = a.shape
    lt = np.ascontiguousarray(components.T)
    size = min(_CHUNK, -(-n // _BLOCK) * _BLOCK)
    buf = np.empty((size, d))
    z = np.empty((size // _BLOCK, _BLOCK, lt.shape[1]))
    for start in range(0, n, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n))
        m = rows.stop - start
        blocks = -(-m // _BLOCK)
        if b is None:
            buf[:m] = a[rows]
        else:
            np.subtract(a[rows], b[rows], out=buf[:m])
        buf[m:blocks * _BLOCK] = 0.0
        yield rows, np.matmul(buf[:blocks * _BLOCK].reshape(blocks, _BLOCK, d), lt,
                              out=z[:blocks]).reshape(blocks * _BLOCK, -1)[:m]


def _distances(components: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-squared learned distance between rows of ``a`` and ``b`` (n, d):
    the difference rows mapped by :func:`_mapped_chunks`, each reduced to
    its squared norm by ``einsum`` over the row alone."""
    out = np.empty(len(a))
    for rows, z in _mapped_chunks(components, a, b):
        np.einsum("nc,nc->n", z, z, out=out[rows])
    return np.sqrt(out, out=out)


def _valid_threshold(threshold) -> float:
    """A pair threshold as a float; it must be a finite number >= 0."""
    try:
        thr = float(threshold)
    except (TypeError, ValueError):
        thr = math.nan
    if not math.isfinite(thr) or thr < 0:
        raise ValidationError(f"threshold must be finite and >= 0, got {threshold!r}")
    return thr


@dataclass
class MahalanobisModel:
    """Learned Mahalanobis metric: linear map, optional pair threshold."""

    components: np.ndarray
    threshold: float | None = None
    algorithm: str = "manual"
    fit_report: FitReport = field(default_factory=FitReport)

    def __post_init__(self):
        # force C layout: the map kernel copies L.T and does not care, but a
        # caller's own flat product with the public components accumulates
        # in a layout-dependent order, and a JSON round trip always loads
        # C-contiguous; one layout keeps such products bit-exact across it
        l = np.ascontiguousarray(_as_floats(self.components, "components"))
        if l.ndim != 2 or l.size == 0:
            raise ValidationError("components must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(l)):
            raise ValidationError("components contain non-finite entries")
        if l.shape[0] > l.shape[1]:
            raise DimensionError(
                f"n_components ({l.shape[0]}) cannot exceed n_features ({l.shape[1]})"
            )
        if self.threshold is not None:
            self.threshold = _valid_threshold(self.threshold)
        self.components = l

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]

    # -- core semantics -----------------------------------------------------

    def transform(self, x) -> np.ndarray:
        """Map data into the learned space: returns X L^T, each row
        computed by the fixed-shape map kernel, so a row has the same bits
        alone as inside any batch."""
        x = _as_features(x, self.n_features)
        out = np.empty((len(x), self.n_components))
        for rows, z in _mapped_chunks(self.components, x):
            out[rows] = z
        return out

    def score_pairs(self, pairs) -> np.ndarray:
        """Non-squared learned distance for each pair in an (n, 2, d) array."""
        pairs = validate_tuples(pairs, 2, self.n_features)
        return _distances(self.components, pairs[:, 0], pairs[:, 1])

    def get_metric(self):
        """Detached distance function over two feature vectors.

        The returned callable captures a copy of the transformation matrix and
        stays valid independently of this model's lifetime.
        """
        l = self.components.copy()
        d = self.n_features

        def metric(x, y) -> float:
            x, y = (_as_floats(v, "metric input") for v in (x, y))
            if x.shape != (d,) or y.shape != (d,):
                raise DimensionError(
                    f"metric expects two vectors of length {d}, "
                    f"got shapes {x.shape} and {y.shape}"
                )
            pair = validate_tuples(np.stack((x, y))[None], 2, d)
            return float(_distances(l, pair[:, 0], pair[:, 1])[0])

        return metric

    def get_mahalanobis_matrix(self) -> np.ndarray:
        """The PSD quadratic-form matrix M = L^T L."""
        m = self.components.T @ self.components
        return 0.5 * (m + m.T)

    # -- prediction ---------------------------------------------------------

    def predict_pairs(self, pairs) -> np.ndarray:
        """+1 (similar) where distance <= threshold, else -1; ties are +1."""
        self._check_threshold()
        return self._predict(validate_tuples(pairs, 2, self.n_features))

    def decision_function_pairs(self, pairs) -> np.ndarray:
        """Continuous similarity score: the negated distance per pair."""
        return -self.score_pairs(pairs)

    def predict_triplets(self, triplets) -> np.ndarray:
        """+1 where the anchor is strictly closer to the second point."""
        return self._predict(validate_tuples(triplets, 3, self.n_features))

    def predict_quadruplets(self, quads) -> np.ndarray:
        """+1 where the first pair is strictly closer than the second pair."""
        return self._predict(validate_tuples(quads, 4, self.n_features))

    def _check_threshold(self) -> None:
        if self.threshold is None:
            raise ValidationError(
                "pair threshold is not set; calibrate it or set it manually"
            )

    def _predict(self, t: np.ndarray) -> np.ndarray:
        """+1/-1 per tuple of a block that validate_tuples already accepted."""
        l = self.components
        if t.shape[1] == 2:
            return np.where(_distances(l, t[:, 0], t[:, 1]) <= self.threshold, 1, -1)
        near = _distances(l, t[:, 0], t[:, 1])
        if t.shape[1] == 3:
            far = _distances(l, t[:, 0], t[:, 2])
        else:
            far = _distances(l, t[:, 2], t[:, 3])
        return np.where(near < far, 1, -1)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        fr = self.fit_report
        return {
            "algorithm": self.algorithm,
            "n_features": self.n_features,
            "n_components": self.n_components,
            "components": [[float(v) for v in row] for row in self.components],
            "threshold": None if self.threshold is None else float(self.threshold),
            "fit_report": {
                "converged": bool(fr.converged),
                "n_iter": int(fr.n_iter),
                "final_objective": float(fr.final_objective),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MahalanobisModel":
        """The model a :meth:`to_dict` document describes; a missing
        ``fit_report`` field takes its default, a mistyped one raises
        :class:`ValidationError` (``converged`` must be a JSON bool, the
        counts JSON integers)."""
        try:
            components = np.asarray(d["components"], dtype=float)
            fr = d.get("fit_report") or {}
            converged = fr.get("converged", True)
            if not isinstance(converged, bool):
                raise TypeError(f"converged must be true or false, got {converged!r}")
            report = FitReport(
                converged=converged,
                n_iter=check_at_least("n_iter", fr.get("n_iter", 1), 0),
                final_objective=float(fr.get("final_objective", 0.0)),
                objective_trace=(float(fr.get("final_objective", 0.0)),),
            )
            # an absent count is not checked
            shape = tuple(check_at_least(key, d[key], 1) if key in d else size
                          for key, size in zip(("n_components", "n_features"),
                                               components.shape))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(f"malformed model document: {exc}") from exc
        model = cls(components=components, threshold=d.get("threshold"),
                    algorithm=str(d.get("algorithm", "manual")), fit_report=report)
        if shape != model.components.shape:
            raise ValidationError("model document shape fields disagree with components")
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MahalanobisModel":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"invalid model JSON: {exc}") from exc
        return cls.from_dict(doc)

    def min_mahalanobis_eigenvalue(self) -> float:
        """Smallest eigenvalue of M = L^T L (should be >= -1e-9 always)."""
        return float(sym_eig(self.get_mahalanobis_matrix()).eigenvalues[-1])


def from_components(l) -> MahalanobisModel:
    """Wrap a raw transformation matrix as an untagged model."""
    return MahalanobisModel(components=l)
