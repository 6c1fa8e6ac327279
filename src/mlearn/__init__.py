"""Mahalanobis distance metric learning toolkit.

Eight learners over four supervision regimes (class labels, pairs, triplets
for prediction, quadruplets), a shared model abstraction with transform /
pair-scoring / prediction / threshold-calibration semantics, a
cross-validation and grid-search harness, and a CSV-based command line.

``import mlearn`` loads no submodule: each public name is looked up in its
module on first access (PEP 562), so a program pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CalibrationResult": "calibration", "calibrate_threshold": "calibration",
    "ConditioningError": "exceptions", "ConvergenceWarning": "exceptions",
    "DimensionError": "exceptions", "MetricLearnError": "exceptions",
    "NumericalError": "exceptions", "RankError": "exceptions",
    "SymmetryError": "exceptions", "ValidationError": "exceptions",
    "FitReport": "model", "MahalanobisModel": "model",
    "from_components": "model",
    "CvResult": "modelsel", "SupervisedTask": "modelsel",
    "cross_validate": "modelsel", "grid_search": "modelsel",
    "kfold_split": "modelsel", "knn_predict": "modelsel",
    "accuracy_score": "scoring", "f1_score": "scoring",
    "roc_auc_score": "scoring", "score": "scoring",
    "LFDA": "supervised", "LMNN": "supervised", "MLKR": "supervised",
    "NCA": "supervised", "RCA": "supervised",
    "ITML": "weak", "LSML": "weak", "MMC": "weak",
    "pairs_from_labels": "tuples", "quadruplets_from_labels": "tuples",
    "triplets_from_labels": "tuples", "validate_tuples": "tuples",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # not cached in the package globals: the name is read from its module on
    # every access, so a rebinding there is seen here too
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted([*globals(), *__all__])
