"""Experiment protocols: splitting, grid search, low-data and stability
sweeps, prior-quality comparison, and the synthetic-data generator that
serves as the model's sampling oracle.

Every protocol is a pure function of (data, spec, seeds); reruns produce
identical tables. Grid search builds the priors once per strength and fits
all its cells in one stacked training pass (:func:`~labelforge.train.fit_cells`),
since every cell shares the seeded minibatch order; each cell's result
equals a stand-alone fit up to rounding. Sweep results are returned as flat rows with keys
(experiment, mode, size, replicate, metric, value) so they can be written
straight to the results-table format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .errors import DataError, LabelForgeError
from .infer import predict, predict_grouped
from .metrics import MetricsReport, l2_distance, score
from .model import Dataset, LabelPrior, VoteRows
from .priors import (
    PriorSpec,
    build_empirical_priors,
    build_mv_priors,
    build_random_priors,
    reference_accuracies,
)
from .train import FitResult, TrainConfig, fit, fit_cells

MODES = ("mle", "map-mv", "map-emp", "map-rand")

WIN_METRICS = ("accuracy", "f1", "precision", "recall", "auc_roc")


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test partition: test = round(n * (1 - train_frac)),
    validation = max(1, round(remaining * val_frac_of_train))."""

    train_frac: float = 0.8
    val_frac_of_train: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, frac in (
            ("train_frac", self.train_frac),
            ("val_frac_of_train", self.val_frac_of_train),
        ):
            if not (0.0 < frac < 1.0):
                raise DataError(f"{name} must lie in (0, 1), got {frac}")


@dataclass(frozen=True)
class GridSpec:
    """Candidate hyperparameter values explored combinatorially."""

    strengths: tuple = (10.0, 100.0)
    learning_rates: tuple = (0.001, 0.01)
    alpha_inits: tuple = (0.8, 0.9, 1.0)
    ps: tuple = tuple(round(i / 10, 1) for i in range(5, 11))
    force_abstain: tuple = (True, False)

    def __post_init__(self):
        for name in ("strengths", "learning_rates", "alpha_inits", "ps", "force_abstain"):
            if len(getattr(self, name)) == 0:
                raise DataError(f"grid value list {name} must be nonempty")


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth parameters for sampling an LF matrix from the model."""

    m: int
    n: int
    accuracy: tuple | float
    coverage: tuple | float
    class_balance: float = 0.5
    seed: int = 0

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        vectors = []
        for name in ("accuracy", "coverage"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.ndim > 1 or vec.size not in (1, self.m):
                raise DataError(
                    f"synthetic {name} has {vec.size} entries, expected 1 or m={self.m}"
                )
            vec = np.broadcast_to(vec, (self.m,)).copy()
            if (vec < 0).any() or (vec > 1).any():
                raise DataError(f"synthetic {name} entries must lie in [0, 1]")
            vectors.append(vec)
        return vectors[0], vectors[1]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DataError(f"synthetic spec needs m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if not (0.0 <= self.class_balance <= 1.0):
            raise DataError(f"class_balance must lie in [0, 1], got {self.class_balance}")
        self.vectors()


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _shuffled_parts(dataset: Dataset, seed: int, *sizes: int) -> list[Dataset]:
    """One seeded shuffle of the rows, cut into consecutive parts of the given sizes."""
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return [dataset.subset(part) for part in np.split(perm, np.cumsum(sizes[:-1]))]


def split(dataset: Dataset, spec: SplitSpec | None = None) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous train/val/test partition."""
    spec = spec or SplitSpec()
    n = dataset.n
    if n < 3:
        raise DataError(f"dataset too small to split, need n >= 3, got {n}")
    n_test = _half_up(n * (1.0 - spec.train_frac))
    n_pre = n - n_test
    n_val = max(1, _half_up(n_pre * spec.val_frac_of_train))
    n_train = n_pre - n_val
    if n_train < 1 or n_test < 1:
        raise DataError(f"degenerate split sizes ({n_train}, {n_val}, {n_test}) for n={n}")
    train, val, test = _shuffled_parts(dataset, spec.seed, n_train, n_val, n_test)
    return train, val, test


def holdout(dataset: Dataset, val_frac: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """Seeded (train, validation) partition for training-time early stopping,
    with round(n * val_frac) validation rows; no shuffle and no validation
    set when that rounds to 0."""
    if not (0.0 <= val_frac < 1.0):
        raise DataError(f"validation fraction must lie in [0, 1), got {val_frac}")
    n_val = _half_up(dataset.n * val_frac)
    if n_val == 0:
        return dataset, None
    if n_val >= dataset.n:
        raise DataError("validation fraction leaves no training rows")
    val, train = _shuffled_parts(dataset, seed, n_val, dataset.n - n_val)
    return train, val


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample (votes, truth) from the generative model, deterministic per seed."""
    acc, cov = spec.vectors()
    rng = np.random.default_rng(spec.seed)
    truth = np.where(rng.random(spec.n) < spec.class_balance, 1, -1).astype(np.int8)
    voted = rng.random((spec.n, spec.m)) < cov
    correct = rng.random((spec.n, spec.m)) < acc
    votes = voted * np.where(correct, truth[:, None], -truth[:, None])
    return Dataset(votes, truth)


def build_mode_priors(
    mode: str,
    votes: np.ndarray,
    truth: np.ndarray | None,
    strength: float,
    p: float,
    force_abstain: bool,
    seed: int,
) -> PriorSpec | None:
    """Prior construction for one of the named training modes (None for mle)."""
    if mode == "mle":
        return None
    if mode == "map-mv":
        return build_mv_priors(votes, strength, p, force_abstain)
    if mode == "map-emp":
        if truth is None:
            raise DataError("map-emp mode requires ground-truth labels")
        return build_empirical_priors(votes, truth, strength, p, force_abstain)
    if mode == "map-rand":
        return build_random_priors(votes.shape[1], strength, seed, p, force_abstain)
    raise DataError(f"unknown mode {mode!r}")


def _fit_and_score(
    train: Dataset,
    val_votes: np.ndarray | None,
    test: Dataset,
    mode: str,
    strength: float,
    p: float,
    force_abstain: bool,
    config: TrainConfig,
) -> tuple[FitResult, MetricsReport]:
    prior = build_mode_priors(
        mode, train.votes, train.truth, strength, p, force_abstain, config.seed
    )
    result = fit(train.votes, val_votes, prior, config)
    label_prior = prior.label_prior if prior is not None else LabelPrior()
    preds = predict(test.votes, result.params, label_prior)
    return result, score(preds, test.truth)


@dataclass
class GridCellResult:
    index: int
    settings: dict
    report: MetricsReport | None
    best_epoch: int
    wins: int = 0
    error: str | None = None


@dataclass
class GridSearchResult:
    best: GridCellResult
    cells: list[GridCellResult] = field(default_factory=list)


def _grid_cells(grid: GridSpec, mode: str) -> list[dict]:
    if mode == "mle":
        return [
            {"learning_rate": lr, "alpha_init": init}
            for lr, init in product(grid.learning_rates, grid.alpha_inits)
        ]
    ps = [p for p in grid.ps if p >= 0.5]
    if not ps:
        raise DataError("grid has no label-prior values >= 0.5 for a MAP mode")
    return [
        {
            "strength": s,
            "learning_rate": lr,
            "alpha_init": init,
            "p": p,
            "force_abstain": force,
        }
        for s, lr, init, p, force in product(
            grid.strengths, grid.learning_rates, grid.alpha_inits, ps, grid.force_abstain
        )
    ]


def grid_search(
    train: Dataset,
    val: Dataset,
    grid: GridSpec | None = None,
    mode: str = "map-mv",
    config: TrainConfig | None = None,
) -> GridSearchResult:
    """Fit one model per grid cell and pick the cell winning the most
    validation metrics; ties break on fewer epochs to best, then cell index.

    The priors are built once per strength, and every cell is fitted in one
    stacked :func:`~labelforge.train.fit_cells` pass; each cell equals a
    stand-alone :func:`~labelforge.train.fit` up to rounding. The validation
    split is grouped into vote patterns once, and each cell labels the
    patterns (:func:`~labelforge.infer.predict_grouped`). A cell whose
    priors, config or fit fail is recorded with its error, scores zero wins
    and ranks after every cell that succeeded.
    """
    if val.truth is None:
        raise DataError("grid search requires ground truth on the validation split")
    grid = grid or GridSpec()
    base = config or TrainConfig()
    # p and force_abstain only set the label prior, so the priors built for
    # one strength (or the error building them) serve all its cells
    built: dict = {}
    cells: list[GridCellResult] = []
    stacked: list[tuple[GridCellResult, PriorSpec | None, TrainConfig]] = []
    for index, settings in enumerate(_grid_cells(grid, mode)):
        cell = GridCellResult(index, settings, None, 0)
        cells.append(cell)
        strength = settings.get("strength")
        if strength not in built:
            try:
                built[strength] = build_mode_priors(
                    mode, train.votes, train.truth, strength, 0.5, False, base.seed
                )
            except LabelForgeError as exc:
                built[strength] = exc
        try:
            cfg = replace(
                base, learning_rate=settings["learning_rate"], alpha_init=settings["alpha_init"]
            )
            prior = built[strength]
            if isinstance(prior, LabelForgeError):
                raise prior
            if prior is not None:
                label_prior = replace(
                    prior.label_prior, p=settings["p"], force_abstain=settings["force_abstain"]
                )
                prior = replace(prior, label_prior=label_prior)
        except LabelForgeError as exc:
            cell.error = str(exc)
            continue
        stacked.append((cell, prior, cfg))

    if stacked:
        fitted, priors, configs = zip(*stacked)
        try:
            results = fit_cells(train.votes, val.votes, priors, configs)
        except LabelForgeError as exc:
            results = [exc] * len(stacked)
        val_grouped = VoteRows.grouped(val.votes, 0.5)
        for cell, prior, result in zip(fitted, priors, results):
            try:
                if isinstance(result, LabelForgeError):
                    raise result
                label_prior = prior.label_prior if prior is not None else LabelPrior()
                preds = predict_grouped(val_grouped, result.params, label_prior)
                cell.report = score(preds, val.truth)
                cell.best_epoch = result.best_epoch
            except LabelForgeError as exc:
                cell.error = str(exc)

    for metric in WIN_METRICS:
        values = [
            getattr(cell.report, metric)
            for cell in cells
            if cell.report is not None and getattr(cell.report, metric) is not None
        ]
        if not values:
            continue
        top = max(values)
        for cell in cells:
            if cell.report is not None and getattr(cell.report, metric) == top:
                cell.wins += 1

    best = min(cells, key=lambda c: (c.error is not None, -c.wins, c.best_epoch, c.index))
    return GridSearchResult(best=best, cells=cells)


def _metric_rows(
    experiment: str, mode: str, size, replicate, report: MetricsReport
) -> list[dict]:
    return [
        {
            "experiment": experiment,
            "mode": mode,
            "size": size,
            "replicate": replicate,
            "metric": name,
            "value": value,
        }
        for name, value in report.as_dict().items()
    ]


def low_data_indices(
    train_n: int, val_n: int, size: int, val_frac: float, seed_base: int, replicate: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices for one (replicate, size) cell of the low-data sweep.

    Prefixes of one seeded permutation per replicate, so subsets are nested
    across sizes whenever the seeds match. The stream tag 0 keeps this
    independent of the per-epoch shuffles, which use tags >= 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed_base + replicate, 0]))
    train_order = rng.permutation(train_n)
    val_order = rng.permutation(val_n)
    n_val = min(val_n, max(1, _half_up(size * val_frac)))
    return train_order[:size], val_order[:n_val]


def low_data_sweep(
    dataset: Dataset,
    sizes,
    replicates: int,
    modes=("map-mv", "mle"),
    split_spec: SplitSpec | None = None,
    config: TrainConfig | None = None,
    strength: float = 10.0,
    p: float = 0.5,
    force_abstain: bool = False,
) -> list[dict]:
    """Training-set-size sweep: per replicate, re-split the dataset, subsample
    train and validation, rebuild priors from the subset, fit, and score on
    that replicate's full test split.

    Subsets are prefix-nested across sizes within a replicate (see
    :func:`low_data_indices`). Sizes and the replicate count must be at
    least 1, or DataError names the bad value before anything is fitted.
    Sizes larger than the train split are skipped with a warning. Aggregate
    rows (mean and population standard deviation over replicates, ignoring
    undefined values) are appended with replicate = 'mean' / 'std'.
    """
    if dataset.truth is None:
        raise DataError("low-data sweep requires ground-truth labels for scoring")
    sizes = list(sizes)
    if replicates < 1:
        raise DataError(f"low-data sweep needs at least 1 replicate, got {replicates}")
    for size in sizes:
        if size < 1:
            raise DataError(f"low-data size must be >= 1, got {size}")
    split_spec = split_spec or SplitSpec()
    base = config or TrainConfig()
    rows: list[dict] = []
    for r in range(replicates):
        sp = replace(split_spec, seed=split_spec.seed + r)
        train, val, test = split(dataset, sp)
        for size in sizes:
            if size > train.n:
                if r == 0:
                    warnings.warn(
                        f"skipping low-data size {size}: only {train.n} training rows",
                        stacklevel=2,
                    )
                continue
            train_idx, val_idx = low_data_indices(
                train.n, val.n, size, split_spec.val_frac_of_train, base.seed, r
            )
            sub_train = train.subset(train_idx)
            sub_val = val.subset(val_idx)
            cfg = replace(base, seed=base.seed + r)
            for mode in modes:
                _, report = _fit_and_score(
                    sub_train, sub_val.votes, test, mode, strength, p, force_abstain, cfg
                )
                rows.extend(_metric_rows("lowdata", mode, size, str(r), report))
    rows.extend(_aggregate_rows(rows))
    return rows


def _aggregate_rows(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["experiment"], row["mode"], row["size"], row["metric"])
        groups.setdefault(key, []).append(row["value"])
    out = []
    for (experiment, mode, size, metric), values in groups.items():
        arr = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
        defined = arr[~np.isnan(arr)]
        mean = float(defined.mean()) if defined.size else None
        std = float(defined.std()) if defined.size else None
        for stat, value in (("mean", mean), ("std", std)):
            out.append(
                {
                    "experiment": experiment,
                    "mode": mode,
                    "size": size,
                    "replicate": stat,
                    "metric": metric,
                    "value": value,
                }
            )
    return out


def collect_aggregates(rows: list[dict]) -> dict[tuple, float | None]:
    """Index aggregate rows by (mode, size, metric, stat) for easy lookup."""
    return {
        (row["mode"], row["size"], row["metric"], row["replicate"]): row["value"]
        for row in rows
        if row["replicate"] in ("mean", "std")
    }


def stability_sweep(
    train: Dataset,
    test: Dataset,
    epoch_grid,
    modes=("map-mv", "mle"),
    config: TrainConfig | None = None,
    strength: float = 10.0,
    p: float = 0.5,
    force_abstain: bool = False,
) -> list[dict]:
    """Test metrics after training to each fixed epoch budget (no early
    stopping: the model is fit without a validation split and the final
    parameters are used). Budget 0 scores the initialized model."""
    if test.truth is None:
        raise DataError("stability sweep requires ground-truth labels for scoring")
    base = config or TrainConfig()
    rows: list[dict] = []
    for budget in epoch_grid:
        if budget < 0:
            raise DataError(f"epoch budget must be >= 0, got {budget}")
        cfg = replace(base, max_epochs=int(budget))
        for mode in modes:
            _, report = _fit_and_score(
                train, None, test, mode, strength, p, force_abstain, cfg
            )
            rows.extend(_metric_rows("stability", mode, int(budget), "0", report))
    return rows


def prior_quality_study(
    dataset: Dataset,
    strength: float = 100.0,
    p: float = 0.5,
    force_abstain: bool = False,
    split_spec: SplitSpec | None = None,
    config: TrainConfig | None = None,
    modes=("map-mv", "map-rand", "map-emp", "mle"),
) -> dict[str, dict[str, float | None]]:
    """Distance of prior means and fitted accuracies from the empirical LF
    accuracies, per training mode.

    ``prior_l2`` compares the requested prior means (before boundary
    shrinkage) against the empirical accuracies, so the empirical-prior
    mode reports exactly 0. The mle row has no prior distance.
    """
    if dataset.truth is None:
        raise DataError("prior-quality study requires ground-truth labels")
    split_spec = split_spec or SplitSpec()
    config = config or TrainConfig()
    train, val, _ = split(dataset, split_spec)
    alpha_star = reference_accuracies(train.votes, train.truth)
    out: dict[str, dict[str, float | None]] = {}
    for mode in modes:
        prior = build_mode_priors(
            mode, train.votes, train.truth, strength, p, force_abstain, config.seed
        )
        result = fit(train.votes, val.votes, prior, config)
        prior_l2 = None
        if prior is not None and prior.means is not None:
            prior_l2 = l2_distance(alpha_star, prior.means)
        out[mode] = {
            "prior_l2": prior_l2,
            "alpha_l2": l2_distance(alpha_star, result.params.accuracy),
        }
    return out
