"""The learned-metric model: a linear map L plus prediction semantics.

A :class:`MahalanobisModel` wraps the transformation matrix ``L`` of shape
(n_components, n_features). The distance between two points is the Euclidean
distance after mapping through ``L``; equivalently the quadratic form under
M = L^T L. Distances are always reported non-squared; squared distances are
an internal detail of the solvers.

Every distance goes through one batched kernel, :func:`_distances`, so that
``score_pairs``, ``get_metric`` (a batch of one) and every predict method
agree bit for bit, which makes serialization round trips exactly
reproducible. The kernel must give a row the same bits whatever batch it sits
in. It uses ``np.einsum`` without ``optimize``, which contracts each output
element over the feature axis in a fixed order that does not depend on the
number of rows. A BLAS product such as ``(a - b) @ L.T`` does not: OpenBLAS
picks its blocking and kernels from the matrix shape, so a row can round
differently alone than inside a larger batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ValidationError, check_at_least
from .linalg import sym_eig
from .tuples import _as_features, validate_tuples


@dataclass(frozen=True)
class FitReport:
    """Convergence record of a fit: flag, iterations, objective trace."""

    converged: bool = True
    n_iter: int = 1
    final_objective: float = 0.0
    objective_trace: tuple = field(default=(0.0,))


def _distances(components: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-squared learned distance between rows of ``a`` and ``b`` (n, d)."""
    z = np.einsum("nd,cd->nc", a - b, components)
    return np.sqrt(np.einsum("nc,nc->n", z, z))


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
        # force C layout: transform and the distance kernel accumulate in a
        # layout-dependent order, and a JSON round trip always loads
        # C-contiguous, so mixed layouts would break bit-exact save/load
        # prediction equality
        l = np.ascontiguousarray(np.asarray(self.components, dtype=float))
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
        """Map data into the learned space: returns X L^T."""
        x = _as_features(x, self.n_features)
        return x @ self.components.T

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
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            if x.shape != (d,) or y.shape != (d,):
                raise DimensionError(
                    f"metric expects two vectors of length {d}, "
                    f"got shapes {x.shape} and {y.shape}"
                )
            return float(_distances(l, x[None], y[None])[0])

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
    return MahalanobisModel(components=np.asarray(l, dtype=float))
