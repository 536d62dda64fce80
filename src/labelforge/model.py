"""Generative model of labeling-function votes.

A matrix of ternary votes (+1 / -1 / 0 = abstain) is modeled per entry:
an LF abstains with probability 1 - coverage, votes the true label with
probability accuracy * coverage, and votes the wrong label with
probability (1 - accuracy) * coverage. The true label of each row is a
latent Bernoulli variable, so the row marginal sums the class-conditional
joints over both labels. Beta priors over per-LF accuracies (and
optionally coverages) turn the log objective from plain likelihood into
a regularized one.

Every probability is computed in the log domain by one kernel. The
model factorises per LF, so a row's two class log-likelihoods are linear
in its votes: with d the votes as float64 and s = |d|, they are
``c + s @ g +- d @ h`` for per-LF vectors h, g and a constant c built from
the parameters (:func:`log_likelihoods`). The posterior log-odds are then
``2 d @ h`` plus the prior log-odds (:func:`posterior_log_odds`), so the
objective, its gradient and prediction are each one or two mat-vecs over
votes converted once per matrix (:class:`VoteRows`). Training clamps
accuracies and coverages into [clamp_eps, 1 - clamp_eps] so the objective
stays finite; prediction uses the parameters as given, and a row that is
impossible under both labels (only parameters at exactly 0 or 1 allow
that) comes back as degenerate, never as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError

# Clamp applied to accuracy/coverage before log evaluation; initialization
# at exactly 1.0 must still yield a finite objective.
CLAMP_EPS = 1e-6

VALID_VOTES = (-1, 0, 1)


def _as_votes(values: np.ndarray, allowed: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as int8, after checking that every entry is in ``allowed``.

    int8 input is returned as is. Other input is checked before the cast,
    so 0.5 or 257 is rejected rather than truncated or wrapped.
    """
    if (
        values.dtype == np.int8
        and values.size
        and values.min() >= allowed[0]
        and values.max() <= allowed[-1]
        and (0 in allowed or values.all())
    ):
        return values
    if values.dtype.kind not in "biuf":
        raise DataError(f"{what} entries must be numbers, got dtype {values.dtype}")
    ok = np.isin(values, allowed)
    if not ok.all():
        raise DataError(f"{what} entries must be in {set(allowed)}, found {values[~ok][0]}")
    return values.astype(np.int8, copy=False)


def as_lf_matrix(values) -> np.ndarray:
    """Validate and return an (n, m) int8 array of ternary LF votes."""
    mat = np.asarray(values)
    if mat.ndim != 2:
        raise DataError(f"LF matrix must be 2-dimensional, got shape {mat.shape}")
    n, m = mat.shape
    if n < 1 or m < 1:
        raise DataError(f"LF matrix needs at least one row and one column, got {n}x{m}")
    return _as_votes(mat, VALID_VOTES, "LF matrix")


def as_label_vector(values, allow_abstain: bool = True) -> np.ndarray:
    """Validate an int8 label vector; entries in {-1, 0, 1}, or {-1, 1} for ground truth."""
    vec = np.asarray(values)
    if vec.ndim != 1:
        raise DataError(f"label vector must be 1-dimensional, got shape {vec.shape}")
    return _as_votes(vec, VALID_VOTES if allow_abstain else (-1, 1), "label")


@dataclass(frozen=True)
class ModelParams:
    """Per-LF accuracy and coverage vectors, each in [0, 1]."""

    accuracy: np.ndarray
    coverage: np.ndarray

    def __post_init__(self):
        acc = np.asarray(self.accuracy, dtype=np.float64)
        cov = np.asarray(self.coverage, dtype=np.float64)
        if acc.ndim != 1 or cov.ndim != 1 or acc.shape != cov.shape:
            raise DataError(
                f"accuracy/coverage must be equal-length vectors, got {acc.shape} and {cov.shape}"
            )
        for name, vec in (("accuracy", acc), ("coverage", cov)):
            if not np.isfinite(vec).all() or (vec < 0).any() or (vec > 1).any():
                raise DataError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "accuracy", acc)
        object.__setattr__(self, "coverage", cov)

    @property
    def m(self) -> int:
        return self.accuracy.shape[0]


@dataclass(frozen=True)
class BetaPrior:
    """Per-LF beta-distribution pseudo-count parameters (u, v), all positive."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 1 or u.shape != v.shape:
            raise DataError(f"u/v must be equal-length vectors, got {u.shape} and {v.shape}")
        if (u <= 0).any() or (v <= 0).any() or not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise DataError("beta prior parameters must be finite and > 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def m(self) -> int:
        return self.u.shape[0]

    def mean(self) -> np.ndarray:
        return self.u / (self.u + self.v)


@dataclass(frozen=True)
class LabelPrior:
    """Bernoulli prior over latent labels, anchored to majority-vote signals.

    ``p`` is the probability mass placed on the majority-vote label of each
    row; rows where the vote vector abstains get the uninformative (0.5, 0.5)
    pair. ``mv_votes`` of None means "recompute majority vote from whatever
    matrix is being scored", which is always done at prediction time.
    """

    p: float = 0.5
    mv_votes: np.ndarray | None = None
    force_abstain: bool = False

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise DataError(f"label prior p must lie in [0.5, 1], got {self.p}")
        if self.mv_votes is not None:
            object.__setattr__(self, "mv_votes", as_label_vector(self.mv_votes))


@dataclass(frozen=True)
class Dataset:
    """An LF vote matrix plus optional ground-truth labels."""

    votes: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "votes", as_lf_matrix(self.votes))
        if self.truth is not None:
            truth = as_label_vector(self.truth, allow_abstain=False)
            if truth.shape[0] != self.votes.shape[0]:
                raise DataError(
                    f"truth length {truth.shape[0]} != row count {self.votes.shape[0]}"
                )
            object.__setattr__(self, "truth", truth)

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        truth = None if self.truth is None else self.truth[idx]
        return Dataset(self.votes[idx], truth)


def label_prior_pairs(mv_votes: np.ndarray, p: float) -> np.ndarray:
    """Per-row (prior_pos, prior_neg) pairs from majority-vote anchors.

    Rows voting +1 get (p, 1-p), rows voting -1 get (1-p, p), abstaining
    rows get the uninformative (0.5, 0.5).
    """
    votes = as_label_vector(mv_votes)
    pairs = np.full((votes.shape[0], 2), 0.5, dtype=np.float64)
    pairs[votes == 1] = (p, 1.0 - p)
    pairs[votes == -1] = (1.0 - p, p)
    return pairs


class VoteRows(NamedTuple):
    """Rows of a vote matrix converted once for the log-joint kernel.

    ``d`` holds the votes as float64, ``s = |d|`` marks the votes cast,
    ``count`` is the number of votes each LF cast, and ``log_prior`` holds
    the rows' (n, 2) log class priors (-inf where a prior is 0).
    """

    d: np.ndarray
    s: np.ndarray
    count: np.ndarray
    log_prior: np.ndarray

    @classmethod
    def of(cls, votes: np.ndarray, class_priors: np.ndarray) -> "VoteRows":
        """Convert a checked vote matrix and its (n, 2) class prior pairs."""
        d = votes.astype(np.float64)
        s = np.abs(d)
        with np.errstate(divide="ignore"):
            log_prior = np.log(class_priors)
        return cls(d, s, s.sum(axis=0), log_prior)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def take(self, idx: np.ndarray) -> "VoteRows":
        s = self.s[idx]
        return VoteRows(self.d[idx], s, s.sum(axis=0), self.log_prior[idx])


def kernel_inputs(
    votes, params, class_priors, clamp_eps: float
) -> tuple[VoteRows, np.ndarray, np.ndarray]:
    """(rows, accuracy, coverage) for the kernel, with accuracy and coverage
    clamped into [clamp_eps, 1 - clamp_eps] so every log stays finite.

    ``votes`` is either a vote matrix, checked and converted here with its
    (n, 2) class prior pairs (symmetric when None), or VoteRows that the
    caller converted once (``class_priors`` is then not used). ``params`` is
    a ModelParams or an (accuracy, coverage) pair of checked vectors.
    """
    if not isinstance(votes, VoteRows):
        votes = as_lf_matrix(votes)
        n = votes.shape[0]
        if class_priors is None:
            class_priors = np.full((n, 2), 0.5)
        class_priors = np.asarray(class_priors, dtype=np.float64)
        if class_priors.shape != (n, 2):
            raise DataError(f"class priors must have shape ({n}, 2), got {class_priors.shape}")
        if not (class_priors >= 0).all():
            raise DataError("class prior probabilities must be >= 0")
        votes = VoteRows.of(votes, class_priors)
    acc, cov = (params.accuracy, params.coverage) if isinstance(params, ModelParams) else params
    if acc.shape[0] != votes.d.shape[1]:
        raise DataError(f"matrix has {votes.d.shape[1]} columns but params have {acc.shape[0]}")
    lo, hi = clamp_eps, 1.0 - clamp_eps
    return votes, np.clip(acc, lo, hi), np.clip(cov, lo, hi)


def _kernel(accuracy: np.ndarray, coverage: np.ndarray):
    """Per-LF vectors (h, g, c) of the log-joint kernel and the (3, m) mask
    ``zero`` of votes that have probability 0.

    Under label +1, vote v of LF j has log probability ``logf[v + 1, j]``:
    log((1-a) b), log(1-b) and log(a b) for v = -1, 0, +1, with a the
    accuracy and b the coverage. Under label -1 the vote is negated. So with
    d the float votes and s = |d|, the class log-likelihoods are
    ``c + s @ g + d @ h`` (+1) and ``c + s @ g - d @ h`` (-1). A factor of 0
    (a parameter at exactly 0 or 1, which a model file can hold) is left out
    of h, g and c and marked in ``zero``, so no 0 * -inf makes a NaN.
    """
    with np.errstate(divide="ignore"):
        log_cov = np.log(coverage)
        logf = np.array(
            [np.log1p(-accuracy) + log_cov, np.log1p(-coverage), np.log(accuracy) + log_cov]
        )
    zero = logf == -np.inf
    logf[zero] = 0.0
    h = 0.5 * (logf[2] - logf[0])
    g = 0.5 * (logf[2] + logf[0]) - logf[1]
    return h, g, logf[1].sum(), zero


def _impossible(votes: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """(n, 2) mask of rows casting a vote of probability 0 under label +1
    (col 0) and -1 (col 1), from the ``zero`` mask of :func:`_kernel`."""
    cols = np.flatnonzero(zero.any(axis=0))
    v = votes[:, cols].astype(np.intp)
    return np.stack([zero[v + 1, cols].any(axis=1), zero[1 - v, cols].any(axis=1)], axis=1)


def log_likelihoods(votes: VoteRows, accuracy: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """(n, 2) array of log P(row | label) for label = +1 (col 0) and -1 (col 1),
    -inf where a row casts a vote of probability 0 under that label."""
    h, g, c, zero = _kernel(accuracy, coverage)
    dh = votes.d @ h
    base = votes.s @ g + c
    ll = np.stack([base + dh, base - dh], axis=1)
    if zero.any():
        ll[_impossible(votes.d, zero)] = -np.inf
    return ll


def posterior_log_odds(
    votes: np.ndarray, accuracy: np.ndarray, coverage: np.ndarray, class_priors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log P(+1 | row) - log P(-1 | row), and the mask of degenerate
    rows, which are impossible under both labels (their log-odds are 0).

    Parameters are used as given, so they may sit at exactly 0 or 1; a row
    impossible under one label only gets log-odds -inf or +inf.
    """
    h, _, _, zero = _kernel(accuracy, coverage)
    with np.errstate(divide="ignore"):
        log_w = np.log(class_priors)
    if zero.any():
        log_w[_impossible(votes, zero)] = -np.inf
    degenerate = (log_w == -np.inf).all(axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on degenerate rows
        odds = 2.0 * (votes.astype(np.float64) @ h) + (log_w[:, 0] - log_w[:, 1])
    odds[degenerate] = 0.0
    return odds, degenerate


def beta_log_density(x: np.ndarray, prior: BetaPrior) -> np.ndarray:
    """Elementwise log beta density, x assumed strictly inside (0, 1)."""
    u, v = prior.u, prior.v
    log_norm = np.array(
        [math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b) for a, b in zip(u, v)]
    )
    return (u - 1.0) * np.log(x) + (v - 1.0) * np.log1p(-x) - log_norm


def log_objective(
    votes,
    params: ModelParams,
    accuracy_prior: BetaPrior | None = None,
    label_prior: LabelPrior | None = None,
    include_priors: bool = True,
    coverage_prior: BetaPrior | None = None,
    clamp_eps: float = CLAMP_EPS,
) -> float:
    """Total log objective: sum of log row marginals plus (optionally) the
    beta log densities of the accuracy prior, added exactly once.

    With ``include_priors=False`` this is the plain likelihood objective.
    The Bernoulli label prior always enters through the per-row class
    priors, which come from ``label_prior`` (symmetric 0.5/0.5 when None).
    ``coverage_prior`` adds a symmetric term for the learned-coverage
    variant.
    """
    votes = as_lf_matrix(votes)
    n = votes.shape[0]
    if label_prior is None:
        pairs = np.full((n, 2), 0.5, dtype=np.float64)
    else:
        anchors = label_prior.mv_votes
        if anchors is None:
            from .priors import majority_vote

            anchors = majority_vote(votes)
        elif anchors.shape[0] != n:
            raise DataError(f"label prior covers {anchors.shape[0]} rows, matrix has {n}")
        pairs = label_prior_pairs(anchors, label_prior.p)
    return log_objective_given_pairs(
        VoteRows.of(votes, pairs), params, None, accuracy_prior, include_priors,
        coverage_prior, clamp_eps,
    )


def log_objective_given_pairs(
    votes,
    params,
    class_priors: np.ndarray | None,
    accuracy_prior: BetaPrior | None = None,
    include_priors: bool = True,
    coverage_prior: BetaPrior | None = None,
    clamp_eps: float = CLAMP_EPS,
) -> float:
    """Same as :func:`log_objective` but with class prior pairs precomputed;
    ``votes``, ``params`` and ``class_priors`` are as in :func:`kernel_inputs`."""
    rows, acc, cov = kernel_inputs(votes, params, class_priors, clamp_eps)
    joint = log_likelihoods(rows, acc, cov) + rows.log_prior
    total = float(np.logaddexp(joint[:, 0], joint[:, 1]).sum())
    if include_priors and accuracy_prior is not None:
        if accuracy_prior.m != acc.shape[0]:
            raise DataError(
                f"accuracy prior has {accuracy_prior.m} entries, params have {acc.shape[0]}"
            )
        total += float(beta_log_density(acc, accuracy_prior).sum())
        if coverage_prior is not None:
            total += float(beta_log_density(cov, coverage_prior).sum())
    if not np.isfinite(total):
        raise NumericalError(f"log objective is non-finite ({total})")
    return total
