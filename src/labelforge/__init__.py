"""labelforge: regularized data programming.

Fits a generative model of noisy labeling-function votes, with optional
beta priors over LF accuracies and a majority-vote-anchored prior over
the latent labels, and produces denoised label vectors with abstention.

The public names are those the README's Library section uses, the library
form of each CLI command (``generate_synthetic``, ``fit`` with a
``build_*_priors`` function, ``predict``, ``score``, ``grid_search``,
``low_data_sweep``, ``stability_sweep``, ``prior_quality_study`` and the
file readers and writers), the types and errors those take, return or
raise, and ``majority_vote``. Helpers such as ``BetaPrior``, ``auc_roc``
or ``reference_accuracies`` are imported from their modules.

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
        "errors": ("DataError", "LabelForgeError", "NumericalError"),
        "model": ("Dataset", "LabelPrior", "ModelParams"),
        "priors": (
            "PriorSpec",
            "build_empirical_priors",
            "build_mv_priors",
            "build_random_priors",
            "build_user_priors",
            "majority_vote",
        ),
        "train": ("FitResult", "TrainConfig", "fit"),
        "infer": ("Predictions", "majority_vote_predictions", "predict"),
        "metrics": ("MetricsReport", "l2_distance", "mv_concordance", "score"),
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
