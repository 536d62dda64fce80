"""Experiment protocols: splitting, grid search, low-data and stability
sweeps, prior-quality comparison, and the synthetic-data generator that
serves as the model's sampling oracle.

Every protocol is a pure function of (data, spec, seeds); reruns produce
identical tables. Each protocol groups each split into vote patterns once
and fits the models of one split as the cells of one stacked training
pass (:func:`~labelforge.train.fit_cells`), since they share the seeded
minibatch order: one cell per mode in the low-data sweep and the
prior-quality study, one per (mode, epoch budget) in the stability sweep,
one per distinct setting in grid search. Each cell's result equals a
stand-alone fit up to rounding. Sweep results are returned as flat rows
with keys (experiment, mode, size, replicate, metric, value) so they can
be written straight to the results-table format.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from .errors import DataError, NumericalError
from .infer import predict_grouped
from .metrics import MetricsReport, l2_distance, score
from .model import Dataset, LabelPrior, VoteRows
from .priors import (
    PriorSpec,
    build_empirical_priors,
    build_mle_priors,
    build_mv_priors,
    build_random_priors,
    reference_accuracies,
)
from .train import FitResult, TrainConfig, fit_cells

MODES = ("mle", "map-mv", "map-emp", "map-rand")

WIN_METRICS = ("accuracy", "f1", "precision", "recall", "auc_roc")

# the protocols' partition: train and validation take TRAIN_FRAC of the
# rows, validation VAL_FRAC of those
TRAIN_FRAC = 0.8
VAL_FRAC = 0.1


def _grid_value_ok(key: str, value) -> bool:
    if key == "force_abstain":
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class GridSpec:
    """Candidate hyperparameter values explored combinatorially. Each field
    takes a nonempty list or tuple of finite numbers (booleans for
    ``force_abstain``), stored as a tuple; anything else raises DataError
    naming the field."""

    strengths: tuple = (10.0, 100.0)
    learning_rates: tuple = (0.001, 0.01)
    alpha_inits: tuple = (0.8, 0.9, 1.0)
    ps: tuple = tuple(round(i / 10, 1) for i in range(5, 11))
    force_abstain: tuple = (True, False)

    def __post_init__(self):
        for grid_field in fields(self):
            key, values = grid_field.name, getattr(self, grid_field.name)
            if not isinstance(values, (list, tuple)) or not values or not all(
                _grid_value_ok(key, value) for value in values
            ):
                kind = "booleans" if key == "force_abstain" else "finite numbers"
                raise DataError(
                    f"grid key {key!r} must be a nonempty list of {kind}, got {values!r}"
                )
            object.__setattr__(self, key, tuple(values))


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
            bad = ~((vec >= 0) & (vec <= 1))  # NaN fails both
            if bad.any():
                raise DataError(
                    f"synthetic {name} entries must be numbers in [0, 1], got {vec[bad][0]}"
                )
            vectors.append(vec)
        return vectors[0], vectors[1]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DataError(f"synthetic spec needs m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if int(self.n) * int(self.m) > np.iinfo(np.intp).max // 8:  # the n x m draws
            raise DataError(f"synthetic n x m = {self.n} x {self.m} exceeds any float64 array")
        if not (0.0 <= self.class_balance <= 1.0):
            raise DataError(f"class_balance must lie in [0, 1], got {self.class_balance}")
        self.vectors()


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _shuffled_parts(dataset: Dataset, seed: int, *sizes: int) -> list[Dataset]:
    """One seeded shuffle of the rows, cut into consecutive parts of the given sizes."""
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return [dataset.subset(part) for part in np.split(perm, np.cumsum(sizes[:-1]))]


def split(dataset: Dataset, seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous train/val/test partition: test =
    round(n * (1 - TRAIN_FRAC)), validation = max(1, round(rest * VAL_FRAC))."""
    n = dataset.n
    if n < 3:
        raise DataError(f"dataset too small to split, need n >= 3, got {n}")
    n_test = _half_up(n * (1.0 - TRAIN_FRAC))
    n_pre = n - n_test
    n_val = max(1, _half_up(n_pre * VAL_FRAC))
    n_train = n_pre - n_val
    if n_train < 1 or n_test < 1:
        raise DataError(f"degenerate split sizes ({n_train}, {n_val}, {n_test}) for n={n}")
    train, val, test = _shuffled_parts(dataset, seed, n_train, n_val, n_test)
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
) -> PriorSpec:
    """Prior construction for one of the named training modes; mle has the
    label prior only."""
    if mode == "mle":
        return build_mle_priors(p, force_abstain)
    if mode == "map-mv":
        return build_mv_priors(votes, strength, p, force_abstain)
    if mode == "map-emp":
        if truth is None:
            raise DataError("map-emp mode requires ground-truth labels")
        return build_empirical_priors(votes, truth, strength, p, force_abstain)
    if mode == "map-rand":
        return build_random_priors(votes.shape[1], strength, seed, p, force_abstain)
    raise DataError(f"unknown mode {mode!r}")


def _mode_priors(
    train: Dataset, modes, strength, p, force_abstain, seed: int
) -> list[PriorSpec]:
    """Every mode's prior, built before any fit: an empty or repeated mode
    list, or a mode not in MODES, raises DataError."""
    if not modes or len(set(modes)) < len(modes):
        raise DataError(f"modes must be nonempty and distinct, got {list(modes)}")
    return [
        build_mode_priors(mode, train.votes, train.truth, strength, p, force_abstain, seed)
        for mode in modes
    ]


def _fit_stacked(train_votes, val_votes, priors, configs) -> list[FitResult]:
    """One stacked fit of every (prior, config) cell, each split grouped
    once; a failed cell's error is raised."""
    val = None if val_votes is None else VoteRows.grouped(val_votes)
    results = fit_cells(VoteRows.grouped(train_votes), val, priors, configs)
    for result in results:
        if isinstance(result, NumericalError):
            raise result
    return results


def _score_labels(grouped, truth, prior: PriorSpec, result: FitResult) -> MetricsReport:
    """Score a fit's labels of a grouped matrix under its prior's label prior."""
    return score(predict_grouped(grouped, result.params, prior.label_prior), truth)


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
    # a cell's keys are the grid's field names in the singular; mle cells,
    # with no accuracy prior, take every axis but the strengths
    names = [grid_field.name for grid_field in fields(grid)][mode == "mle" :]
    cells = product(*(getattr(grid, name) for name in names))
    return [{name.removesuffix("s"): value for name, value in zip(names, cell)} for cell in cells]


def grid_search(
    train: Dataset,
    val: Dataset,
    grid: GridSpec | None = None,
    mode: str = "map-mv",
    config: TrainConfig | None = None,
) -> GridSearchResult:
    """Fit each distinct model of the grid once and pick the cell winning the
    most validation metrics; ties break on fewer epochs to best, then index.

    Every cell's priors and config are built before anything is fitted, so a
    grid value that ``train`` would refuse (a strength of 0, an alpha_init
    outside [0, 1]) raises its DataError for the whole search. The priors are
    built once per strength; mle cells, having no accuracy prior, take every
    axis but ``strengths``. Cells that differ only in ``force_abstain``
    share a fit, and every fit runs in one stacked
    :func:`~labelforge.train.fit_cells` pass, equal to a stand-alone
    :func:`~labelforge.train.fit` up to rounding. Each cell labels the
    validation split, grouped into vote patterns once, with its own label
    prior. A cell whose fit fails is recorded with its NumericalError,
    scores zero wins and ranks after every cell that succeeded; if every
    fit fails, the first error is raised.
    """
    if val.truth is None:
        raise DataError("grid search requires ground truth on the validation split")
    grid = grid or GridSpec()
    base = config or TrainConfig()
    cells = [
        GridCellResult(index, settings, None, 0)
        for index, settings in enumerate(_grid_cells(grid, mode))
    ]
    # p and force_abstain only set the label prior, so the priors built for
    # one strength serve all its cells
    built: dict = {}
    priors: list[PriorSpec] = []
    configs: list[TrainConfig] = []
    for cell in cells:
        settings = cell.settings
        strength = settings.get("strength")
        if strength not in built:
            built[strength] = build_mode_priors(
                mode, train.votes, train.truth, strength, 0.5, False, base.seed
            )
        label_prior = LabelPrior(settings["p"], settings["force_abstain"])
        priors.append(replace(built[strength], label_prior=label_prior))
        configs.append(replace(
            base, learning_rate=settings["learning_rate"], alpha_init=settings["alpha_init"]
        ))

    # force_abstain, the grid's innermost axis, only labels: neighbours share a fit
    per_fit = len(grid.force_abstain)
    val_grouped = VoteRows.grouped(val.votes)
    results = fit_cells(
        VoteRows.grouped(train.votes), val_grouped, priors[::per_fit], configs[::per_fit]
    )
    failed = [result for result in results if isinstance(result, NumericalError)]
    if len(failed) == len(results):
        raise failed[0]
    for cell, prior in zip(cells, priors):
        result = results[cell.index // per_fit]
        if isinstance(result, NumericalError):
            cell.error = str(result)
            continue
        cell.report = _score_labels(val_grouped, val.truth, prior, result)
        cell.best_epoch = result.best_epoch

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


def metric_rows(experiment: str, mode: str, size, replicate, values: dict) -> list[dict]:
    """One results-table row per (metric name, value) pair of ``values``."""
    return [
        {
            "experiment": experiment,
            "mode": mode,
            "size": size,
            "replicate": replicate,
            "metric": name,
            "value": value,
        }
        for name, value in values.items()
    ]


def low_data_indices(
    train_n: int, val_n: int, size: int, seed_base: int, replicate: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices for one (replicate, size) cell of the low-data sweep.

    Prefixes of one seeded permutation per replicate, so subsets are nested
    across sizes whenever the seeds match. The stream tag 0 keeps this
    independent of the per-epoch shuffles, which use tags >= 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed_base + replicate, 0]))
    train_order = rng.permutation(train_n)
    val_order = rng.permutation(val_n)
    n_val = min(val_n, max(1, _half_up(size * VAL_FRAC)))
    return train_order[:size], val_order[:n_val]


def low_data_sweep(
    dataset: Dataset,
    sizes,
    replicates: int,
    modes=("map-mv", "mle"),
    config: TrainConfig | None = None,
    strength: float = 10.0,
    p: float = 0.5,
    force_abstain: bool = False,
) -> list[dict]:
    """Training-set-size sweep: per replicate r, re-split the dataset and fit
    with seed ``config.seed + r``, subsample train and validation, rebuild
    priors from the subset, fit all modes in one stacked pass, and score on
    that replicate's full test split.

    Subsets are prefix-nested across sizes within a replicate (see
    :func:`low_data_indices`). Sizes and the replicate count must be at
    least 1, the sizes and the modes distinct, the modes in MODES and some
    size no larger than the train split, or DataError names the bad value
    before anything is fitted. Other sizes larger than the train split are
    skipped with a warning. Aggregate rows (mean and population standard
    deviation over replicates, ignoring undefined values) are appended with
    replicate = 'mean' / 'std'.
    """
    if dataset.truth is None:
        raise DataError("low-data sweep requires ground-truth labels for scoring")
    sizes = list(sizes)
    if replicates < 1:
        raise DataError(f"low-data sweep needs at least 1 replicate, got {replicates}")
    for size in sizes:
        if size < 1:
            raise DataError(f"low-data size must be >= 1, got {size}")
    if len(set(sizes)) < len(sizes):
        raise DataError(f"low-data sizes must be distinct, got {sizes}")
    base = config or TrainConfig()
    rows: list[dict] = []
    for r in range(replicates):
        cfg = replace(base, seed=base.seed + r)
        train, val, test = split(dataset, cfg.seed)
        if r == 0:  # every replicate's train split has the same size
            too_big = [size for size in sizes if size > train.n]
            if len(too_big) == len(sizes):
                raise DataError(f"no low-data size in {sizes} fits the {train.n} training rows")
            for size in too_big:
                warnings.warn(
                    f"skipping low-data size {size}: only {train.n} training rows", stacklevel=2
                )
        test_grouped = VoteRows.grouped(test.votes)
        for size in sizes:
            if size > train.n:
                continue
            train_idx, val_idx = low_data_indices(train.n, val.n, size, base.seed, r)
            sub_train = train.subset(train_idx)
            priors = _mode_priors(sub_train, modes, strength, p, force_abstain, cfg.seed)
            results = _fit_stacked(
                sub_train.votes, val.votes[val_idx], priors, [cfg] * len(priors)
            )
            for mode, prior, result in zip(modes, priors, results):
                report = _score_labels(test_grouped, test.truth, prior, result)
                rows.extend(metric_rows("lowdata", mode, size, str(r), report.as_dict()))
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
            out.extend(metric_rows(experiment, mode, size, stat, {metric: value}))
    return out


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
    stopping: the models are fit without a validation split, one cell per
    (budget, mode) in one stacked pass to the largest budget, and each cell's
    final parameters are used). The priors are built once, as no budget
    changes them. Budget 0 scores the initialized model; a negative or
    repeated one, or a bad mode list (see :func:`_mode_priors`), raises
    DataError before anything is fitted."""
    if test.truth is None:
        raise DataError("stability sweep requires ground-truth labels for scoring")
    budgets = list(epoch_grid)
    for budget in budgets:
        if budget < 0:
            raise DataError(f"epoch budget must be >= 0, got {budget}")
    if len(set(budgets)) < len(budgets):
        raise DataError(f"epoch budgets must be distinct, got {budgets}")
    base = config or TrainConfig()
    priors = _mode_priors(train, modes, strength, p, force_abstain, base.seed)
    test_grouped = VoteRows.grouped(test.votes)
    cells = [(int(b), mode, prior) for b in budgets for mode, prior in zip(modes, priors)]
    configs = [replace(base, max_epochs=budget) for budget, _, _ in cells]
    results = _fit_stacked(train.votes, None, [prior for _, _, prior in cells], configs)
    rows: list[dict] = []
    for (budget, mode, prior), result in zip(cells, results):
        report = _score_labels(test_grouped, test.truth, prior, result)
        rows.extend(metric_rows("stability", mode, budget, "0", report.as_dict()))
    return rows


def prior_quality_study(
    dataset: Dataset,
    strength: float = 100.0,
    p: float = 0.5,
    config: TrainConfig | None = None,
    modes=("map-mv", "map-rand", "map-emp", "mle"),
) -> dict[str, dict[str, float | None]]:
    """Distance of prior means and fitted accuracies from the empirical LF
    accuracies, per training mode, all modes fitted in one stacked pass on
    the train split of ``config.seed``.

    ``prior_l2`` compares the requested prior means (before boundary
    shrinkage) against the empirical accuracies, so the empirical-prior
    mode reports exactly 0. The mle row has no prior distance.
    """
    if dataset.truth is None:
        raise DataError("prior-quality study requires ground-truth labels")
    config = config or TrainConfig()
    train, val, _ = split(dataset, config.seed)
    alpha_star = reference_accuracies(train.votes, train.truth)
    priors = _mode_priors(train, modes, strength, p, False, config.seed)
    results = _fit_stacked(train.votes, val.votes, priors, [config] * len(priors))
    out: dict[str, dict[str, float | None]] = {}
    for mode, prior, result in zip(modes, priors, results):
        out[mode] = {
            "prior_l2": None if prior.means is None else l2_distance(alpha_star, prior.means),
            "alpha_l2": l2_distance(alpha_star, result.params.accuracy),
        }
    return out
