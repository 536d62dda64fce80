"""labelforge: regularized data programming.

Fits a generative model of noisy labeling-function votes, with optional
beta priors over LF accuracies and a majority-vote-anchored prior over
the latent labels, and produces denoised label vectors with abstention.
"""

__version__ = "0.1.0"

from .errors import (
    DataError,
    EmptyOverlapError,
    LabelForgeError,
    NumericalError,
)
from .model import (
    BetaPrior,
    Dataset,
    LabelPrior,
    ModelParams,
    log_objective,
)
from .priors import (
    PriorSpec,
    accuracy_vs_reference,
    beta_from_mean,
    build_empirical_priors,
    build_mv_priors,
    build_random_priors,
    build_uniform_priors,
    build_user_priors,
    majority_vote,
    reference_accuracies,
)
from .train import FitResult, TrainConfig, coverage_from_data, fit, learn_beta_fit
from .infer import Prediction, Predictions, coverage, majority_vote_predictions, predict
from .metrics import (
    ConcordanceReport,
    MetricsReport,
    auc_roc,
    format_percent,
    l2_distance,
    mv_concordance,
    score,
)
from .experiments import (
    GridSpec,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    grid_search,
    low_data_sweep,
    prior_quality_study,
    split,
    stability_sweep,
)
from .dataio import (
    ModelFile,
    load_model,
    read_dataset,
    read_predictions,
    save_model,
    write_dataset,
    write_predictions,
    write_results_table,
)

__all__ = [
    "__version__",
    "BetaPrior",
    "ConcordanceReport",
    "DataError",
    "Dataset",
    "EmptyOverlapError",
    "FitResult",
    "GridSpec",
    "LabelForgeError",
    "LabelPrior",
    "MetricsReport",
    "ModelFile",
    "ModelParams",
    "NumericalError",
    "Prediction",
    "Predictions",
    "PriorSpec",
    "SplitSpec",
    "SyntheticSpec",
    "TrainConfig",
    "accuracy_vs_reference",
    "auc_roc",
    "beta_from_mean",
    "build_empirical_priors",
    "build_mv_priors",
    "build_random_priors",
    "build_uniform_priors",
    "build_user_priors",
    "coverage",
    "coverage_from_data",
    "fit",
    "format_percent",
    "generate_synthetic",
    "grid_search",
    "l2_distance",
    "learn_beta_fit",
    "load_model",
    "log_objective",
    "low_data_sweep",
    "majority_vote",
    "majority_vote_predictions",
    "mv_concordance",
    "predict",
    "prior_quality_study",
    "read_dataset",
    "read_predictions",
    "reference_accuracies",
    "save_model",
    "score",
    "split",
    "stability_sweep",
    "write_dataset",
    "write_predictions",
    "write_results_table",
]
