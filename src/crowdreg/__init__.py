"""Active learning for linear regression from noisy, strategic crowd
annotators: variational model, instance scoring, robust annotator selection,
payment mechanism, and an experiment harness."""

from .active import (det_shrinkage, error_contraction_bounds, instance_score,
                     select_instance)
from .bandit import (BanditState, RegretLedger, initialize_state,
                     record_outcome, regret_bound, regret_seq,
                     select_annotator, truncated_mean, truncation_threshold)
from .crowd import (AnnotatorProfile, CostFunction, label_value,
                    make_annotators, optimal_effort)
from .errors import (CrowdError, DataFormatError, InvalidInputError,
                     NumericalFailureError, PoolExhaustedError)
from .features import (Normalization, TransformSpec, apply_normalization,
                       fit_centers, normalize, transform)
from .harness import (ExperimentConfig, RoundRecord, emit_records, full_fit,
                      load_csv, rmse, run_experiment, summarize,
                      synthetic_housing_like)
from .mechanism import PaymentScheme, payment, settle, utility
from .model import (CrowdDataset, FitReport, PrecisionPosterior,
                    WeightPosterior, default_precision_priors,
                    default_weight_prior, expected_precision, fit_variational,
                    predictive, vi_update_precision, vi_update_weights)

__version__ = "0.1.0"

__all__ = [
    "AnnotatorProfile",
    "BanditState",
    "CostFunction",
    "CrowdDataset",
    "CrowdError",
    "DataFormatError",
    "ExperimentConfig",
    "FitReport",
    "InvalidInputError",
    "Normalization",
    "NumericalFailureError",
    "PaymentScheme",
    "PoolExhaustedError",
    "PrecisionPosterior",
    "RegretLedger",
    "RoundRecord",
    "TransformSpec",
    "WeightPosterior",
    "apply_normalization",
    "default_precision_priors",
    "default_weight_prior",
    "det_shrinkage",
    "emit_records",
    "error_contraction_bounds",
    "expected_precision",
    "fit_centers",
    "fit_variational",
    "full_fit",
    "initialize_state",
    "instance_score",
    "label_value",
    "load_csv",
    "make_annotators",
    "normalize",
    "optimal_effort",
    "payment",
    "predictive",
    "record_outcome",
    "regret_bound",
    "regret_seq",
    "rmse",
    "run_experiment",
    "select_annotator",
    "select_instance",
    "settle",
    "summarize",
    "synthetic_housing_like",
    "transform",
    "truncated_mean",
    "truncation_threshold",
    "utility",
    "vi_update_precision",
    "vi_update_weights",
]
