"""Model fitting by stochastic gradient ascent on the (regularized) log objective.

Accuracies are learned; coverages are fixed to the observed per-column
coverage rate unless ``learn_beta`` is set, in which case they are learned
under a beta prior whose means are the empirical coverages. Updates use
the mean per-row gradient of each minibatch (so the learning rate is
independent of dataset size), with the prior gradient weighted by
|batch| / n so an epoch of summed minibatch gradients matches the
full-objective gradient. The train and validation matrices are checked
and converted to :class:`~labelforge.model.VoteRows` once, and the
gradients take those rows with plain parameter and prior vectors; like the
objective, they clamp the parameters into [CLAMP_EPS, 1 - CLAMP_EPS].
Sums over rows are weighted, and the step size and prior weight use the
weight total (the number of rows a batch stands for), so a full batch and
the validation rows are fitted over their distinct vote patterns
(:meth:`~labelforge.model.VoteRows.grouped`, up to 38 LFs), while
minibatches keep one unit-weight row per input row in the seeded order.
Everything is seeded and single-threaded: identical inputs produce
identical results, including loss histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .model import (
    CLAMP_EPS,
    BetaPrior,
    LabelPrior,
    ModelParams,
    VoteRows,
    _clamped,
    _kernel,
    as_lf_matrix,
    label_prior_pairs,
    log_objective,
)
from .priors import PriorSpec, beta_from_mean, majority_vote


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`fit`. ``batch_size=None`` means full batch."""

    learning_rate: float = 0.01
    max_epochs: int = 100
    batch_size: int | None = None
    patience: int = 5
    alpha_init: float = 1.0
    seed: int = 0
    learn_beta: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 0:
            raise DataError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 0:
            raise DataError(f"patience must be >= 0, got {self.patience}")
        if not (0.0 <= self.alpha_init <= 1.0):
            raise DataError(f"alpha_init must lie in [0, 1], got {self.alpha_init}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FitResult:
    """Fitted parameters plus per-epoch negative-objective histories.

    ``stopped_epoch`` counts epochs actually run; ``best_epoch`` is the
    (1-based) epoch whose validation loss was lowest, 0 when no epoch ran.
    Returned params are those of the best validation epoch (final epoch
    when there is no validation split, in which case the validation
    history is empty).
    """

    params: ModelParams
    train_loss_history: list[float] = field(default_factory=list)
    val_loss_history: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


def coverage_from_data(votes) -> np.ndarray:
    """Observed coverage rate per column: fraction of nonzero entries."""
    votes = as_lf_matrix(votes)
    return (votes != 0).sum(axis=0) / votes.shape[0]


def grad_accuracy(
    rows: VoteRows,
    accuracy: np.ndarray,
    coverage: np.ndarray,
    accuracy_prior: BetaPrior | None,
    prior_weight: float,
) -> np.ndarray:
    """Gradient of the batch objective (sum of log marginals over the batch
    plus prior_weight * accuracy-prior log density) with respect to accuracy.

    With e = w * tanh(r / 2) for the rows' weights w and posterior log-odds
    r, the posterior mass of LF j's agreeing votes is (count_j + d_j . e) / 2
    and that of its disagreeing votes (count_j - d_j . e) / 2.
    """
    acc, cov = _clamped(rows, accuracy, coverage)
    h = _kernel(acc, cov)[0]
    half_odds = rows.d @ h + 0.5 * (rows.log_prior[:, 0] - rows.log_prior[:, 1])
    de = (rows.w * np.tanh(half_odds)) @ rows.d
    grad = 0.5 * ((rows.count + de) / acc - (rows.count - de) / (1.0 - acc))
    if accuracy_prior is not None:
        grad = grad + prior_weight * accuracy_prior.log_density_grad(acc)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite accuracy gradient (parameter at a boundary?)")
    return grad


def grad_coverage(
    rows: VoteRows,
    coverage: np.ndarray,
    coverage_prior: BetaPrior | None,
    prior_weight: float,
) -> np.ndarray:
    """Gradient of the batch objective with respect to coverage.

    The posterior label weights of each row sum to one and coverage enters
    both class likelihoods identically, so the data term reduces to vote
    counts: voted / cov - abstained / (1 - cov).
    """
    (cov,) = _clamped(rows, coverage)
    grad = rows.count / cov - (rows.total - rows.count) / (1.0 - cov)
    if coverage_prior is not None:
        grad = grad + prior_weight * coverage_prior.log_density_grad(cov)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite coverage gradient (parameter at a boundary?)")
    return grad


def fit(
    train_votes,
    val_votes=None,
    prior_spec: PriorSpec | None = None,
    config: TrainConfig | None = None,
) -> FitResult:
    """Fit accuracies (and optionally coverages) by seeded SGD ascent.

    ``prior_spec=None`` trains the plain-likelihood model under a symmetric
    label prior. Early stopping watches the validation negative objective
    (priors included) and restores the best epoch's parameters; with no
    validation rows the loop always runs ``max_epochs`` and the final
    parameters are returned. Patience 0 behaves like patience 1.
    """
    config = config or TrainConfig()
    votes = as_lf_matrix(train_votes)
    n, m = votes.shape
    eps = CLAMP_EPS

    acc_prior = None if prior_spec is None else prior_spec.accuracy_prior
    label_prior = LabelPrior() if prior_spec is None else prior_spec.label_prior
    if acc_prior is not None and acc_prior.m != m:
        raise DataError(f"accuracy prior has {acc_prior.m} entries, matrix has {m} columns")

    anchors = label_prior.mv_votes
    if anchors is not None and anchors.shape[0] != n:
        raise DataError(f"label prior covers {anchors.shape[0]} rows, matrix has {n}")
    full_batch = config.batch_size is None or config.batch_size >= n
    if full_batch:
        # A full batch sums over every row in any order, so one row per
        # distinct (pattern, anchor) pair, weighted by its count, gives the
        # same sums.
        rows = VoteRows.grouped(votes, label_prior.p, anchors)[0]
    else:
        anchors = majority_vote(votes) if anchors is None else anchors
        rows = VoteRows.of(votes, label_prior_pairs(anchors, label_prior.p))

    val_rows = None
    if val_votes is not None and np.asarray(val_votes).shape[0] > 0:
        val = as_lf_matrix(val_votes)
        if val.shape[1] != m:
            raise DataError(f"validation matrix has {val.shape[1]} columns, train has {m}")
        val_rows = VoteRows.grouped(val, label_prior.p)[0]

    acc = np.clip(np.full(m, config.alpha_init, dtype=np.float64), eps, 1.0 - eps)
    cov_emp = rows.count / n
    coverage_prior = None
    if config.learn_beta:
        cov = np.clip(cov_emp, eps, 1.0 - eps)
        if prior_spec is not None:
            if prior_spec.strength is None:
                raise DataError("learned-coverage prior requires a scalar prior strength")
            coverage_prior = BetaPrior(*beta_from_mean(cov_emp, prior_spec.strength))
    else:
        cov = cov_emp.copy()

    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val = np.inf
    best_acc = acc.copy()
    best_cov = cov.copy()
    best_epoch = 0
    bad_epochs = 0
    stop_after = max(config.patience, 1)

    for epoch in range(1, config.max_epochs + 1):
        if full_batch:
            batches = (rows,)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch]))
            order = rng.permutation(n)
            size = config.batch_size
            batches = (rows.take(order[start : start + size]) for start in range(0, n, size))
        for batch in batches:
            weight = batch.total / n
            step = config.learning_rate / batch.total
            g_acc = grad_accuracy(batch, acc, cov, acc_prior, weight)
            acc = np.clip(acc + step * g_acc, eps, 1.0 - eps)
            if config.learn_beta:
                g_cov = grad_coverage(batch, cov, coverage_prior, weight)
                cov = np.clip(cov + step * g_cov, eps, 1.0 - eps)

        try:
            train_loss = -log_objective(rows, acc, cov, acc_prior, coverage_prior)
            if val_rows is not None:
                val_loss = -log_objective(val_rows, acc, cov, acc_prior, coverage_prior)
        except NumericalError as exc:
            raise NumericalError(f"non-finite objective at epoch {epoch}: {exc}") from exc
        train_hist.append(train_loss)

        if val_rows is None:
            best_acc, best_cov = acc.copy(), cov.copy()
            best_epoch = epoch
            continue
        val_hist.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_acc, best_cov = acc.copy(), cov.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= stop_after:
                break

    final_cov = best_cov if config.learn_beta else cov_emp
    return FitResult(
        params=ModelParams(best_acc, final_cov),
        train_loss_history=train_hist,
        val_loss_history=val_hist,
        stopped_epoch=len(train_hist),
        best_epoch=best_epoch,
    )

