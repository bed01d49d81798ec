"""Transfer learning for nonparametric classification under posterior drift.

Weighted and adaptive k-nearest-neighbor classifiers that combine source
and target samples sharing a covariate distribution but differing in
their regression functions, plus a simulation harness for accuracy
sweeps and empirical convergence-rate checks.
"""

__version__ = "0.1.0"

from .core import (
    HyperParams,
    KnnPlan,
    RandomSource,
    SampleSet,
    TransferDataset,
    pooled_sample_set,
)
from .neighbors import NeighborIndex
from .classifiers import (
    AdaptiveTrace,
    LepskiTrace,
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_eta,
    weighted_knn_predict,
)
from .simulation import (
    DriftModel,
    ExperimentRecord,
    McEstimate,
    RateCheckResult,
    classification_accuracy,
    excess_risk_mc,
    rate_exponent_check,
    run_accuracy_experiment,
    run_preset,
    sample_dataset,
    sample_multisource_dataset,
    sample_test_points,
    summarize_accuracy,
    target_rate_exponent,
)

__all__ = [
    "__version__",
    "HyperParams", "KnnPlan", "RandomSource", "SampleSet", "TransferDataset",
    "pooled_sample_set", "NeighborIndex",
    "AdaptiveTrace", "LepskiTrace", "adaptive_predict", "combined_budget_k",
    "default_knn_k", "knn_predict", "lepski_predict",
    "minimax_plan", "weighted_knn_eta", "weighted_knn_predict",
    "DriftModel", "ExperimentRecord", "McEstimate", "RateCheckResult",
    "classification_accuracy", "excess_risk_mc",
    "rate_exponent_check", "run_accuracy_experiment", "run_preset",
    "sample_dataset", "sample_multisource_dataset", "sample_test_points",
    "summarize_accuracy", "target_rate_exponent",
]
