"""Model fitting by stochastic gradient ascent on the (regularized) log objective.

Accuracies are learned. Coverage cancels out of each row's log-likelihood
ratio, so neither the labels nor the accuracy gradient read it. It is set
once, before the loop, to the train rows' per-column vote rate. The
objective's coverage half is then a constant per scored matrix, added to
every epoch's objective so the loss histories stay the negative log
posterior. Updates use the mean per-row gradient of each minibatch (so the
learning rate is independent of dataset size), with the prior gradient
weighted by |batch| / n so an epoch of summed minibatch gradients matches
the full-objective gradient. Every step clamps the accuracies into
[CLAMP_EPS, 1 - CLAMP_EPS].

One loop, :func:`fit_cells`, fits K cells at once. Cells share the batch
size, patience and seed, which fix the batch stream and the stop rule;
each runs to its own ``max_epochs`` with its own learning rate,
``alpha_init``, beta priors and label-prior ``p``. Their parameters are
(K, m) arrays, one row per cell and one column of the kernel's m x K
mat-mats, so each minibatch is gathered once for all cells; columns never
mix, so each cell equals its own fit up to rounding. A cell stops early,
or fails on a non-finite gradient or objective, alone. A cell's label
prior enters only through the cells' (3, K) table of log class priors
(:func:`~labelforge.model.class_prior_table`), read by each row's anchor,
the majority vote of its own votes, so no rows x cells prior array
outlives a call, and every label prior anchors to the train matrix it is
fitted on, whatever matrix its spec was built from. :func:`fit` is the
one-cell call.

Each split comes as the ``(rows, inverse)`` pair of
:meth:`~labelforge.model.VoteRows.grouped`, so a caller that fits and
labels a matrix groups it once. Sums over rows are weighted, and the step
size and prior weight use the weight total, so a full batch and the
objectives run over distinct vote patterns; minibatches keep one
unit-weight row per input row in the seeded order, gathered from its
pattern (``rows.d[inverse[idx]]``) when drawn, so no float64 copy of the
whole matrix is made. A loop's arrays hold patterns x cells entries, so
grids beyond MAX_STACKED_ENTRIES / (the larger split's pattern count)
cells run as several loops.

A full-batch epoch makes two passes over the train votes: its gradient
needs ``d @ h`` and ``(w tanh) @ d``, its train objective ``d @ h`` at the
stepped parameters, where the next epoch's gradient starts. So the
objective's ``d @ h`` is handed to that gradient; both come from
:func:`~labelforge.model.half_log_ratios`, so it equals a fresh one bit
for bit. Minibatches carry nothing over: the objective runs over other
rows than the next batch.

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
    ModelParams,
    VoteRows,
    class_prior_table,
    coverage_objectives,
    half_log_ratios,
    log_objectives,
)
from .priors import PriorSpec, build_mle_priors

# Cells fitted in one loop are capped so that the loop's rows x cells
# arrays (the carried d @ h and the two class-prior gathers that the
# gradient and the objectives work in, about three alive at once) hold at
# most this many float64 entries each: 16 MB.
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
    prior_table: np.ndarray,
    accuracy: np.ndarray,
    accuracy_prior: BetaPrior,
    prior_weight: float,
    dh: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the batch objective (sum of log marginals over the batch
    plus prior_weight * accuracy-prior log density) with respect to accuracy.

    ``accuracy`` is (K, m), one row per cell, and ``prior_table`` is the
    cells' (3, K) :func:`~labelforge.model.class_prior_table`; an m-vector
    with the (3,) table of a scalar p gives one cell's m-vector. Each row's
    half prior log-odds (log P(+1) - log P(-1)) / 2 is read by its anchor
    from ``0.5 * (t - t[::-1])``. With e = w * tanh(r / 2) for the rows' weights
    w and posterior log-odds r = 2 (d @ h + half prior log-odds), the
    posterior mass of LF j's agreeing votes is (count_j + d_j . e) / 2 and
    that of its disagreeing votes (count_j - d_j . e) / 2. ``dh`` is the
    rows' :func:`~labelforge.model.half_log_ratios` at the clamped
    accuracies, computed here when None. Accuracies are clamped; nothing is
    checked, so a non-finite entry shows only in its cell's row.
    """
    acc = np.clip(accuracy, CLAMP_EPS, 1.0 - CLAMP_EPS)
    if dh is None:
        dh = half_log_ratios(rows, acc)
    # e is built in place in the fresh gather of the half prior odds.
    odds = (0.5 * (prior_table - prior_table[::-1]))[rows.anchor + 1]
    odds += dh
    e = np.tanh(odds, out=odds).T
    e *= rows.w
    de = e @ rows.d
    grad = 0.5 * ((rows.count + de) / acc - (rows.count - de) / (1.0 - acc))
    return grad + prior_weight * accuracy_prior.log_density_grad(acc)


def beta_map(hits, misses, prior: BetaPrior) -> np.ndarray:
    """The mode of Beta(hits + u, misses + v): the b in
    [CLAMP_EPS, 1 - CLAMP_EPS] that maximises A log b + B log(1 - b), with
    A = hits + u - 1 and B = misses + v - 1, per cell for a (K, m) prior.
    A / (A + B) lands on the wrong end when A or B is negative, so the sign
    decides: CLAMP_EPS where A <= 0 and A <= B, else 1 - CLAMP_EPS where
    B <= 0, else A / (A + B), clipped.
    """
    a = hits + prior.u - 1.0
    b = misses + prior.v - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mode = np.clip(a / (a + b), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return np.where((a <= 0) & (a <= b), CLAMP_EPS, np.where(b <= 0, 1.0 - CLAMP_EPS, mode))


def _stacked_prior(specs: list[PriorSpec], m: int) -> BetaPrior:
    """One (K, m) accuracy prior from K cells' specs; a cell without one (the
    plain likelihood) gets the uniform u = v = 1, whose log density and
    gradient are exactly 0."""
    u, v = np.ones((len(specs), m)), np.ones((len(specs), m))
    for row, beta in enumerate(spec.accuracy_prior for spec in specs):
        if beta is not None:
            if beta.m != m:
                raise DataError(f"accuracy prior has {beta.m} entries, matrix has {m} columns")
            u[row], v[row] = beta.u, beta.v
    return BetaPrior(u, v)


def fit_cells(
    train: tuple[VoteRows, np.ndarray],
    val: tuple[VoteRows, np.ndarray] | None,
    priors: Sequence[PriorSpec],
    configs: Sequence[TrainConfig],
) -> list[FitResult | NumericalError]:
    """Fit one model per (prior spec, config) cell, all in one training loop.

    ``train`` and ``val`` (or None) are the ``(rows, inverse)`` pairs of
    :meth:`~labelforge.model.VoteRows.grouped`. Cells must share
    ``batch_size``, ``patience`` and ``seed``, or DataError is raised; each
    runs to its own ``max_epochs``. Each cell gets the result :func:`fit`
    would give it, up to rounding, or the NumericalError that ended it.
    Cells beyond MAX_STACKED_ENTRIES / (the larger split's pattern count)
    run in further loops of that many.
    """
    priors, configs = list(priors), list(configs)
    if not configs or len(priors) != len(configs):
        raise DataError(f"need one prior per config, got {len(priors)} and {len(configs)}")
    config = configs[0]
    if len({(c.batch_size, c.patience, c.seed) for c in configs}) > 1:
        raise DataError("stacked cells must share batch_size, patience and seed")
    # The objectives and a full batch sum over rows in any order, so they
    # run over one weighted row per distinct vote pattern.
    patterns, inverse = train
    scored = [patterns] if val is None else [patterns, val[0]]
    n, m = inverse.shape[0], patterns.d.shape[1]
    if scored[-1].d.shape[1] != m:
        raise DataError(f"validation matrix has {scored[-1].d.shape[1]} columns, train has {m}")
    k = len(configs)
    eps = CLAMP_EPS

    block = max(1, MAX_STACKED_ENTRIES // max(rows.n for rows in scored))
    if k > block:
        return [
            result
            for start in range(0, k, block)
            for result in fit_cells(
                train, val, priors[start : start + block], configs[start : start + block]
            )
        ]
    acc_prior = _stacked_prior(priors, m)
    prior_table = class_prior_table([spec.label_prior.p for spec in priors])
    full_batch = config.batch_size is None or config.batch_size >= n

    lr = np.array([c.learning_rate for c in configs])[:, None]
    alpha = np.array([c.alpha_init for c in configs])[:, None]
    budgets = np.array([c.max_epochs for c in configs])
    acc = np.clip(np.repeat(alpha, m, axis=1), eps, 1.0 - eps)
    # Coverage is the train rows' vote rate, shared by every cell, so the
    # objective's coverage half is one constant per scored matrix.
    coverage = patterns.count / n
    cov = np.clip(coverage, eps, 1.0 - eps)
    cov_terms = [coverage_objectives(rows, cov) for rows in scored]

    # The train rows' half_log_ratios at the current parameters, which the
    # last full-batch objective computed and the next gradient starts from.
    train_dh = None
    errors: list[NumericalError | None] = [None] * k
    running = np.ones(k, dtype=bool)
    train_hist: list[list[float]] = [[] for _ in range(k)]
    val_hist: list[list[float]] = [[] for _ in range(k)]
    best_val = np.full(k, np.inf)
    best_acc = acc.copy()
    best_epoch = np.zeros(k, dtype=int)
    bad_epochs = np.zeros(k, dtype=int)
    stop_after = max(config.patience, 1)

    def fail(cells: np.ndarray, what: str) -> None:
        for cell in np.flatnonzero(cells):
            errors[cell] = NumericalError(f"{what} at epoch {epoch}")
        running[cells] = False

    # non-finite gradients and objectives become NumericalErrors, not warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for epoch in range(1, budgets.max() + 1):
            running[budgets < epoch] = False
            if not running.any():
                break
            if full_batch:
                batches = (patterns,)
            else:
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch]))
                order = inverse[rng.permutation(n)]  # the drawn rows' patterns
                size = config.batch_size
                batches = (
                    VoteRows(patterns.d[idx], np.ones(idx.size), patterns.anchor[idx])
                    for idx in (order[start : start + size] for start in range(0, n, size))
                )
            for batch in batches:
                weight = batch.total / n
                step = lr / batch.total
                # A cell that stopped, used up its budget or failed is still
                # stepped (a NaN stays in its own row) but no longer recorded.
                g_acc = grad_accuracy(batch, prior_table, acc, acc_prior, weight, train_dh)
                bad = running & ~np.isfinite(g_acc).all(axis=1)
                acc = np.clip(acc + step * g_acc, eps, 1.0 - eps)
                if bad.any():
                    fail(bad, "non-finite accuracy gradient (parameter at a boundary?)")

            if full_batch:
                train_dh = half_log_ratios(patterns, acc)
            losses = [
                -(log_objectives(rows, prior_table, acc, acc_prior, dh) + cov_term)
                for rows, cov_term, dh in zip(scored, cov_terms, (train_dh, None))
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
            best_acc[improved] = acc[improved]
            best_epoch[improved] = epoch

    return [
        errors[cell]
        or FitResult(
            params=ModelParams(best_acc[cell].copy(), coverage.copy()),
            train_loss_history=train_hist[cell],
            val_loss_history=val_hist[cell],
            stopped_epoch=len(train_hist[cell]),
            best_epoch=int(best_epoch[cell]),
        )
        for cell in range(k)
    ]


def fit(
    train_votes,
    val_votes=None,
    prior_spec=None,
    config: TrainConfig | None = None,
) -> FitResult:
    """Fit accuracies by seeded SGD ascent (coverages are closed-form).

    ``prior_spec=None`` trains the plain-likelihood model under a symmetric
    label prior. Early stopping watches the validation negative objective
    (priors included) and restores the best epoch's parameters; with no
    validation rows the loop always runs ``max_epochs`` and the final
    parameters are returned. Patience 0 behaves like patience 1. This is
    the one-cell call of :func:`fit_cells`.
    """
    train = VoteRows.grouped(train_votes)
    has_val = val_votes is not None and np.asarray(val_votes).shape[0] > 0
    val = VoteRows.grouped(val_votes) if has_val else None
    spec = prior_spec or build_mle_priors()
    (result,) = fit_cells(train, val, [spec], [config or TrainConfig()])
    if isinstance(result, NumericalError):
        raise result
    return result
