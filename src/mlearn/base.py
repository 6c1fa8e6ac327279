"""Estimator base classes: parameter handling plus Mahalanobis semantics.

The estimators follow the familiar fit/transform/predict shape with
``get_params``/``set_params`` introspected from ``__init__``, so they compose
with the grid-search harness without any external framework. A fitted
estimator stores a :class:`~mlearn.model.MahalanobisModel` in ``model_`` and
mirrors its transformation matrix in ``components_``.
"""

from __future__ import annotations

import inspect

import numpy as np

from .calibration import calibrate_threshold
from .exceptions import ValidationError
from .model import MahalanobisModel, _valid_threshold


class BaseEstimator:
    """Minimal get_params/set_params/clone support."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValidationError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self) -> "BaseEstimator":
        return type(self)(**self.get_params())


class MahalanobisEstimator(BaseEstimator):
    """Shared post-fit surface of every metric learner."""

    model_: MahalanobisModel

    def _set_model(self, model: MahalanobisModel) -> None:
        self.model_ = model
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
