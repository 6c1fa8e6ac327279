"""Mahalanobis distance metric learning toolkit.

Eight learners over four supervision regimes (class labels, pairs, triplets
for prediction, quadruplets), a shared model abstraction with transform /
pair-scoring / prediction / threshold-calibration semantics, a
cross-validation and grid-search harness, and a CSV-based command line.
"""

from .calibration import CalibrationResult, calibrate_threshold
from .exceptions import (
    ConditioningError,
    ConvergenceWarning,
    DimensionError,
    MetricLearnError,
    NumericalError,
    RankError,
    SymmetryError,
    ValidationError,
)
from .model import FitReport, MahalanobisModel, from_components
from .modelsel import (
    CvResult,
    SupervisedTask,
    cross_validate,
    grid_search,
    kfold_split,
    knn_predict,
)
from .scoring import accuracy_score, f1_score, roc_auc_score, score
from .supervised import LFDA, LMNN, MLKR, NCA, RCA
from .tuples import (
    pairs_from_labels,
    quadruplets_from_labels,
    triplets_from_labels,
    validate_tuples,
)
from .weak import ITML, LSML, MMC

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult", "calibrate_threshold",
    "ConditioningError", "ConvergenceWarning", "DimensionError",
    "MetricLearnError", "NumericalError", "RankError", "SymmetryError",
    "ValidationError",
    "FitReport", "MahalanobisModel", "from_components",
    "CvResult", "SupervisedTask",
    "cross_validate", "grid_search", "kfold_split", "knn_predict",
    "accuracy_score", "f1_score", "roc_auc_score", "score",
    "LFDA", "LMNN", "MLKR", "NCA", "RCA", "ITML", "LSML", "MMC",
    "pairs_from_labels", "quadruplets_from_labels", "triplets_from_labels",
    "validate_tuples",
]
