"""Model fitting by stochastic gradient ascent on the (regularized) log objective.

Accuracies are learned; coverages are fixed to the observed per-column
coverage rate (the train rows' vote counts over their number) unless
``learn_beta`` is set, in which case they are learned under a beta prior
whose means are the empirical coverages. Updates use
the mean per-row gradient of each minibatch (so the learning rate is
independent of dataset size), with the prior gradient weighted by
|batch| / n so an epoch of summed minibatch gradients matches the
full-objective gradient. Every step clamps the parameters into
[CLAMP_EPS, 1 - CLAMP_EPS].

One loop, :func:`fit_cells`, fits K cells at once: cells that share the
epoch budget, batch size, patience, seed, ``learn_beta`` and the train
rows' majority-vote anchors, and differ in learning rate, ``alpha_init``,
beta priors and label-prior ``p``. Their parameters are (K, m) arrays, one
row per cell and one column of the kernel's m x K mat-mats, so each
minibatch is gathered once for all cells; columns never mix, so each cell
equals its own fit up to rounding. Each cell stops early on its own, and a
cell whose gradient or objective turns non-finite fails alone. A cell's
label prior enters only through its rows' class priors, gathered from a
table indexed by anchor: once per fit for a full batch, per minibatch
otherwise, and per epoch for the train and validation objectives, whose
(patterns, 2, K) arrays would otherwise stay alive through the whole loop
and raise a stacked grid's peak memory. Grids too large for
MAX_STACKED_ENTRIES run as several such loops. :func:`fit` is the one-cell
call.

The train and validation matrices are checked and converted to
:class:`~labelforge.model.VoteRows` once. Sums over rows are weighted, and
the step size and prior weight use the weight total (the number of rows a
batch stands for), so a full batch and the per-epoch train and validation
objectives run over distinct vote patterns
(:meth:`~labelforge.model.VoteRows.grouped`, up to 38 LFs), while
minibatches keep one unit-weight row per input row in the seeded order.

A full-batch epoch makes two passes over the train votes. Its gradient
needs ``d @ h`` and ``(w tanh) @ d``; its train objective needs ``d @ h``
at the stepped parameters (:func:`~labelforge.model.log_objectives`
factors everything else out of the rows). Those parameters are where the
next epoch's gradient starts, so the objective's ``d @ h`` is handed to
that gradient instead of being computed again. Both come from
:func:`~labelforge.model.half_log_ratios`, so the handed-over value equals
a fresh one bit for bit. Minibatches carry nothing over: the objective
runs over other rows than the next batch.

Everything is seeded and single-threaded: identical inputs produce
identical results, including loss histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .model import (
    CLAMP_EPS,
    BetaPrior,
    LabelPrior,
    ModelParams,
    VoteRows,
    as_lf_matrix,
    half_log_ratios,
    log_objectives,
)
from .priors import PriorSpec, beta_from_mean, majority_vote

# Cells fitted in one loop are capped so that the loop's rows x cells
# arrays (the full-batch gradient and the objectives, about six alive at
# once) hold at most this many float64 entries each: 16 MB.
MAX_STACKED_ENTRIES = 1 << 21


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
        if not 0 < self.learning_rate < math.inf:
            raise DataError(
                f"learning_rate must be a finite number > 0, got {self.learning_rate}"
            )
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


def grad_accuracy(
    rows: VoteRows,
    prior_odds: np.ndarray,
    accuracy: np.ndarray,
    coverage: np.ndarray,
    accuracy_prior: BetaPrior | None,
    prior_weight: float,
    dh: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the batch objective (sum of log marginals over the batch
    plus prior_weight * accuracy-prior log density) with respect to accuracy.

    ``accuracy`` and ``coverage`` are (K, m), one row per cell, and
    ``prior_odds`` holds the rows' half prior log-odds (log P(+1) - log P(-1)) / 2
    per cell, (n, K); m-vectors with an n-vector of odds give one cell's
    m-vector. With e = w * tanh(r / 2) for the rows' weights w and posterior
    log-odds r = 2 (d @ h + prior_odds), the posterior mass of LF j's
    agreeing votes is (count_j + d_j . e) / 2 and that of its disagreeing
    votes (count_j - d_j . e) / 2. ``dh`` is the rows'
    :func:`~labelforge.model.half_log_ratios` at the clamped parameters,
    computed here when None. Parameters are clamped; nothing is checked, so
    a non-finite entry shows only in its cell's row.
    """
    acc = np.clip(accuracy, CLAMP_EPS, 1.0 - CLAMP_EPS)
    if dh is None:
        dh = half_log_ratios(rows, acc, np.clip(coverage, CLAMP_EPS, 1.0 - CLAMP_EPS))
    de = (rows.w * np.tanh(dh + prior_odds).T) @ rows.d
    grad = 0.5 * ((rows.count + de) / acc - (rows.count - de) / (1.0 - acc))
    if accuracy_prior is not None:
        grad = grad + prior_weight * accuracy_prior.log_density_grad(acc)
    return grad


def grad_coverage(
    rows: VoteRows,
    coverage: np.ndarray,
    coverage_prior: BetaPrior | None,
    prior_weight: float,
) -> np.ndarray:
    """Gradient of the batch objective with respect to coverage, per cell
    for (K, m) coverages.

    The posterior label weights of each row sum to one and coverage enters
    both class likelihoods identically, so the data term reduces to vote
    counts: voted / cov - abstained / (1 - cov).
    """
    cov = np.clip(coverage, CLAMP_EPS, 1.0 - CLAMP_EPS)
    grad = rows.count / cov - (rows.total - rows.count) / (1.0 - cov)
    if coverage_prior is not None:
        grad = grad + prior_weight * coverage_prior.log_density_grad(cov)
    return grad


def _stacked_prior(priors: list[BetaPrior | None], m: int) -> BetaPrior:
    """One (K, m) prior from K cells' priors; a cell without one gets the
    uniform u = v = 1, whose log density and gradient are exactly 0."""
    u, v = np.ones((len(priors), m)), np.ones((len(priors), m))
    for row, prior in enumerate(priors):
        if prior is not None:
            if prior.m != m:
                raise DataError(f"accuracy prior has {prior.m} entries, matrix has {m} columns")
            u[row], v[row] = prior.u, prior.v
    return BetaPrior(u, v)


def _shared(config: TrainConfig) -> tuple:
    return (config.max_epochs, config.batch_size, config.patience, config.seed, config.learn_beta)


def fit_cells(
    train_votes,
    val_votes,
    priors: Sequence[PriorSpec | None],
    configs: Sequence[TrainConfig],
) -> list[FitResult | NumericalError]:
    """Fit one model per (prior spec, config) cell, all in one training loop.

    Cells must share ``max_epochs``, ``batch_size``, ``patience``, ``seed``,
    ``learn_beta`` and their train anchors (``LabelPrior.mv_votes``, where
    None stands for the train matrix's majority vote); anything else raises
    DataError. Each cell gets the result :func:`fit` would give it, up to
    rounding, or the NumericalError that ended it. Cells beyond
    MAX_STACKED_ENTRIES / n run in further loops of that many.
    """
    priors, configs = list(priors), list(configs)
    if not configs or len(priors) != len(configs):
        raise DataError(f"need one prior per config, got {len(priors)} and {len(configs)}")
    config = configs[0]
    if any(_shared(c) != _shared(config) for c in configs):
        raise DataError(
            "stacked cells must share max_epochs, batch_size, patience, seed and learn_beta"
        )
    votes = as_lf_matrix(train_votes)
    n, m = votes.shape
    k = len(configs)
    eps = CLAMP_EPS

    label_priors = [LabelPrior() if spec is None else spec.label_prior for spec in priors]
    anchor_sets = [lp.mv_votes for lp in label_priors]
    if any(a is None for a in anchor_sets):
        mv = majority_vote(votes)
        anchor_sets = [mv if a is None else a for a in anchor_sets]
    anchors = anchor_sets[0]
    if anchors.shape[0] != n:
        raise DataError(f"label prior covers {anchors.shape[0]} rows, matrix has {n}")
    if any(a is not anchors and not np.array_equal(a, anchors) for a in anchor_sets):
        raise DataError("stacked cells must share their label-prior anchors")
    block = max(1, MAX_STACKED_ENTRIES // n)
    if k > block:
        return [
            result
            for start in range(0, k, block)
            for result in fit_cells(
                votes, val_votes, priors[start : start + block], configs[start : start + block]
            )
        ]
    acc_prior = _stacked_prior([None if s is None else s.accuracy_prior for s in priors], m)

    # Log class prior of label +1 for anchors -1, 0 and +1 (rows), per cell
    # (columns); label -1 reads the rows in reverse. p = 1 gives -inf, never NaN.
    p = np.array([lp.p for lp in label_priors])
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.stack([1.0 - p, np.full(k, 0.5), p]))
    half_odds = 0.5 * (log_prior - log_prior[::-1])

    def table_rows(row_anchors: np.ndarray) -> np.ndarray:
        return row_anchors.astype(np.intp) + 1

    def prior_rows(row_anchors: np.ndarray) -> np.ndarray:
        # the table rows of each row's (label +1, label -1) class priors
        idx = table_rows(row_anchors)
        return np.stack([idx, 2 - idx], axis=1)

    # The objectives and a full batch sum over rows in any order, so they
    # run over one weighted row per distinct (pattern, anchor) pair. The
    # cells' class priors come from the table, so the rows' own are left
    # symmetric.
    patterns, pattern_anchors, _ = VoteRows.grouped(votes, 0.5, anchors)
    scored = [(patterns, prior_rows(pattern_anchors))]
    if val_votes is not None and np.asarray(val_votes).shape[0] > 0:
        val = as_lf_matrix(val_votes)
        if val.shape[1] != m:
            raise DataError(f"validation matrix has {val.shape[1]} columns, train has {m}")
        val_rows, val_anchors, _ = VoteRows.grouped(val, 0.5)
        scored.append((val_rows, prior_rows(val_anchors)))
    full_batch = config.batch_size is None or config.batch_size >= n
    if full_batch:
        full_odds = np.take(half_odds, table_rows(pattern_anchors), axis=0)
    else:
        unit_rows, unit_idx = VoteRows.of(votes), table_rows(anchors)

    lr = np.array([c.learning_rate for c in configs])[:, None]
    alpha = np.array([c.alpha_init for c in configs])[:, None]
    acc = np.clip(np.repeat(alpha, m, axis=1), eps, 1.0 - eps)
    cov_emp = patterns.count / n
    cov = np.tile(np.clip(cov_emp, eps, 1.0 - eps), (k, 1))
    coverage_prior = None
    if config.learn_beta:
        cov_priors = []
        for spec in priors:
            if spec is not None and spec.strength is None:
                raise DataError("learned-coverage prior requires a scalar prior strength")
            cov_priors.append(
                None if spec is None else BetaPrior(*beta_from_mean(cov_emp, spec.strength))
            )
        coverage_prior = _stacked_prior(cov_priors, m)

    # The train rows' half_log_ratios at the current parameters, which the
    # last full-batch objective computed and the next gradient starts from.
    train_dh = None
    errors: list[NumericalError | None] = [None] * k
    running = np.ones(k, dtype=bool)
    train_hist: list[list[float]] = [[] for _ in range(k)]
    val_hist: list[list[float]] = [[] for _ in range(k)]
    best_val = np.full(k, np.inf)
    best_acc, best_cov = acc.copy(), cov.copy()
    best_epoch = np.zeros(k, dtype=int)
    bad_epochs = np.zeros(k, dtype=int)
    stop_after = max(config.patience, 1)

    def fail(cells: np.ndarray, what: str) -> None:
        for cell in np.flatnonzero(cells):
            errors[cell] = NumericalError(f"{what} at epoch {epoch}")
        running[cells] = False

    for epoch in range(1, config.max_epochs + 1):
        if not running.any():
            break
        if full_batch:
            batches = ((patterns, full_odds),)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch]))
            order = rng.permutation(n)
            size = config.batch_size
            batches = (
                (unit_rows.take(sel), np.take(half_odds, unit_idx[sel], axis=0))
                for sel in (order[start : start + size] for start in range(0, n, size))
            )
        for batch, odds in batches:
            weight = batch.total / n
            step = lr / batch.total
            # A stopped or failed cell is still stepped (a NaN stays in its
            # own row) but no longer recorded.
            g_acc = grad_accuracy(batch, odds, acc, cov, acc_prior, weight, train_dh)
            bad = running & ~np.isfinite(g_acc).all(axis=1)
            acc = np.clip(acc + step * g_acc, eps, 1.0 - eps)
            if config.learn_beta:
                g_cov = grad_coverage(batch, cov, coverage_prior, weight)
                cov = np.clip(cov + step * g_cov, eps, 1.0 - eps)
                bad_cov = running & ~bad & ~np.isfinite(g_cov).all(axis=1)
                if bad_cov.any():
                    fail(bad_cov, "non-finite coverage gradient (parameter at a boundary?)")
            if bad.any():
                fail(bad, "non-finite accuracy gradient (parameter at a boundary?)")

        if full_batch:
            train_dh = half_log_ratios(patterns, acc, cov)
        losses = [
            -log_objectives(
                rows, np.take(log_prior, pairs, axis=0), acc, cov, acc_prior, coverage_prior,
                train_dh if rows is patterns else None,
            )
            for rows, pairs in scored
        ]
        finite = np.isfinite(losses).all(axis=0)
        if (running & ~finite).any():
            fail(running & ~finite, "non-finite objective")
        live = np.flatnonzero(running)
        for cell in live:
            train_hist[cell].append(float(losses[0][cell]))
        if len(scored) == 1:
            improved = running
        else:
            val_loss = losses[1]
            for cell in live:
                val_hist[cell].append(float(val_loss[cell]))
            improved = running & (val_loss < best_val)
            best_val[improved] = val_loss[improved]
            worse = running & ~improved
            bad_epochs[improved] = 0
            bad_epochs[worse] += 1
            running[worse & (bad_epochs >= stop_after)] = False
        best_acc[improved], best_cov[improved] = acc[improved], cov[improved]
        best_epoch[improved] = epoch

    results: list[FitResult | NumericalError] = []
    for cell in range(k):
        if errors[cell] is not None:
            results.append(errors[cell])
            continue
        final_cov = best_cov[cell].copy() if config.learn_beta else cov_emp
        results.append(
            FitResult(
                params=ModelParams(best_acc[cell].copy(), final_cov),
                train_loss_history=train_hist[cell],
                val_loss_history=val_hist[cell],
                stopped_epoch=len(train_hist[cell]),
                best_epoch=int(best_epoch[cell]),
            )
        )
    return results


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
    parameters are returned. Patience 0 behaves like patience 1. This is
    the one-cell call of :func:`fit_cells`.
    """
    (result,) = fit_cells(train_votes, val_votes, [prior_spec], [config or TrainConfig()])
    if isinstance(result, NumericalError):
        raise result
    return result
