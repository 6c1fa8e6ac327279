"""Estimator base classes: parameter handling, the input gate of every fit,
and Mahalanobis semantics.

The estimators follow the familiar fit/transform/predict shape with
``get_params``/``set_params`` introspected from ``__init__``, so they compose
with the grid-search harness without any external framework. Every ``fit``
starts with one gate, :meth:`MahalanobisEstimator._check_fit`: each
parameter, from the constructor or ``set_params`` (which checks at once),
must have the type of its ``__init__`` default, one with a float default
must be a finite float, and ``max_iter`` and ``tol`` must be >= 0; the data
is checked by the learner's ``supervision`` kind. Every ``fit`` ends with
:meth:`MahalanobisEstimator._set_model`, which stores the learned map as a
:class:`~mlearn.model.MahalanobisModel` in ``model_``, named after the class
(``NCA`` -> ``"nca"``, also its CLI name), and mirrors it in ``components_``.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .calibration import calibrate_threshold
from .exceptions import ValidationError, check_at_least
from .model import FitReport, MahalanobisModel, _valid_threshold
from .tuples import validate_supervision


# the type of a parameter's __init__ default -> the value types it accepts;
# bool is an int, so only a bool default takes a bool. The one tuple
# parameter, ITML's percentiles, is a (low, high) pair
_PARAM_KINDS = (
    (bool, bool, "a bool"), (numbers.Integral, numbers.Integral, "an integer"),
    (numbers.Real, numbers.Real, "a number"), (str, str, "a string"),
    (tuple, (list, tuple), "a list or tuple of two numbers"),
    (type(None), (numbers.Integral, type(None)), "an integer or None"),
)


def _check_param(name: str, value, default):
    """value, of the type of its __init__ default; where that is a float, a
    finite float; and max_iter and tol are >= 0."""
    kind = next((k for k in _PARAM_KINDS if isinstance(default, k[0])), None)
    if kind and (not isinstance(value, kind[1])
                 or isinstance(value, bool) != (kind[0] is bool)):
        raise ValidationError(f"{name} must be {kind[2]}, got {value!r}")
    if isinstance(default, float):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the largest float
            finite = False
        if not finite:
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if name in ("max_iter", "tol"):
        check_at_least(name, value, 0, kind[1])
    return value


class BaseEstimator:
    """Minimal get_params/set_params/clone support."""

    @classmethod
    def _param_defaults(cls) -> dict:
        sig = inspect.signature(cls.__init__)
        return {n: p.default for n, p in sig.parameters.items() if n != "self"}

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_defaults()}

    def set_params(self, **params) -> "BaseEstimator":
        """Set parameters, each checked as the gate of ``fit`` checks it."""
        defaults = self._param_defaults()
        for name, value in params.items():
            if name not in defaults:
                raise ValidationError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(defaults)}"
                )
            setattr(self, name, _check_param(name, value, defaults[name]))
        return self

    def clone(self) -> "BaseEstimator":
        return type(self)(**self.get_params())


class MahalanobisEstimator(BaseEstimator):
    """Shared post-fit surface of every metric learner."""

    model_: MahalanobisModel
    supervision: str  # a key of mlearn.tuples.ARITY

    def _check_fit(self, x, y):
        """(x, y) as arrays once every parameter and the data pass the gate."""
        for name, default in self._param_defaults().items():
            _check_param(name, getattr(self, name), default)
        return validate_supervision(self.supervision, x, y)

    def _set_model(self, l: np.ndarray, report: FitReport = FitReport()) -> None:
        """Store the learned map l as this learner's model."""
        self.model_ = model = MahalanobisModel(
            l, algorithm=type(self).__name__.lower(), fit_report=report)
        self.components_ = model.components
        self.fit_report_ = model.fit_report

    def _check_fitted(self) -> MahalanobisModel:
        if not hasattr(self, "model_"):
            raise ValidationError(
                f"{type(self).__name__} instance is not fitted yet"
            )
        return self.model_

    def transform(self, x) -> np.ndarray:
        return self._check_fitted().transform(x)

    def score_pairs(self, pairs) -> np.ndarray:
        return self._check_fitted().score_pairs(pairs)

    def get_metric(self):
        return self._check_fitted().get_metric()

    def get_mahalanobis_matrix(self) -> np.ndarray:
        return self._check_fitted().get_mahalanobis_matrix()


class PairClassifierMixin:
    """Prediction and threshold calibration for pair learners."""

    def predict(self, pairs) -> np.ndarray:
        return self._check_fitted().predict_pairs(pairs)

    def decision_function(self, pairs) -> np.ndarray:
        return self._check_fitted().decision_function_pairs(pairs)

    def calibrate_threshold(self, pairs, y, metric: str = "accuracy"):
        """Pick and store the best pair threshold on the given labeled pairs."""
        model = self._check_fitted()
        result = calibrate_threshold(model, pairs, y, metric)
        model.threshold = result.threshold
        self.threshold_ = result.threshold
        return result

    def set_threshold(self, threshold: float) -> None:
        model = self._check_fitted()
        model.threshold = self.threshold_ = _valid_threshold(threshold)


class QuadrupletClassifierMixin:
    def predict(self, quads) -> np.ndarray:
        return self._check_fitted().predict_quadruplets(quads)
