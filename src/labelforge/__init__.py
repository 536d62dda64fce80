"""labelforge: regularized data programming.

Fits a generative model of noisy labeling-function votes, with optional
beta priors over LF accuracies and a majority-vote-anchored prior over
the latent labels, and produces denoised label vectors with abstention.

The package imports lazily (PEP 562): ``import labelforge`` loads neither
numpy nor any submodule, and each public name imports its module on first
use. Importing the library never changes the environment or numpy's thread
settings; only the CLI entry (:mod:`labelforge.cli`) sets a thread policy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("DataError", "EmptyOverlapError", "LabelForgeError", "NumericalError"),
        "model": ("BetaPrior", "Dataset", "LabelPrior", "ModelParams", "log_objective"),
        "priors": (
            "PriorSpec",
            "accuracy_vs_reference",
            "beta_from_mean",
            "build_empirical_priors",
            "build_mv_priors",
            "build_random_priors",
            "build_uniform_priors",
            "build_user_priors",
            "majority_vote",
            "reference_accuracies",
        ),
        "train": ("FitResult", "TrainConfig", "coverage_from_data", "fit"),
        "infer": (
            "Prediction",
            "Predictions",
            "coverage",
            "majority_vote_predictions",
            "predict",
        ),
        "metrics": (
            "ConcordanceReport",
            "MetricsReport",
            "auc_roc",
            "format_percent",
            "l2_distance",
            "mv_concordance",
            "score",
        ),
        "experiments": (
            "GridSpec",
            "SplitSpec",
            "SyntheticSpec",
            "generate_synthetic",
            "grid_search",
            "low_data_sweep",
            "prior_quality_study",
            "split",
            "stability_sweep",
        ),
        "dataio": (
            "ModelFile",
            "load_model",
            "read_dataset",
            "read_predictions",
            "save_model",
            "write_dataset",
            "write_predictions",
            "write_results_table",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
