"""Generative model of labeling-function votes.

A matrix of ternary votes (+1 / -1 / 0 = abstain) is modeled per entry:
an LF abstains with probability 1 - coverage, votes the true label with
probability accuracy * coverage, and votes the wrong label with
probability (1 - accuracy) * coverage. The true label of each row is a
latent Bernoulli variable, so the row marginal sums the class-conditional
joints over both labels. Beta priors over per-LF accuracies (and
optionally coverages) turn the log objective from plain likelihood into
a regularized one.

Two computation paths coexist on purpose:

* plain-probability helpers (``lf_factor``, ``class_joint``, ``marginal``,
  ``posterior_class_probs``) used at inference time, where an impossible
  row (marginal underflow) must surface as a degenerate signal so the
  caller can abstain;
* log-domain batch functions (``log_likelihoods``, ``log_marginals``,
  ``log_objective``) used by training, where accuracies and coverages are
  clamped into [clamp_eps, 1 - clamp_eps] before taking logs so the
  objective stays finite even when parameters sit on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateMarginalError, NumericalError

# Clamp applied to accuracy/coverage before log evaluation; initialization
# at exactly 1.0 must still yield a finite objective.
CLAMP_EPS = 1e-6

# Row marginals below this are treated as underflowed to zero on the
# posterior-normalization path.
MARGINAL_FLOOR = 1e-300

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


def _check_label(label: int) -> int:
    if label not in (-1, 1):
        raise DataError(f"class label must be -1 or +1, got {label}")
    return label


def lf_factor(vote: int, label: int, accuracy: float, coverage: float) -> float:
    """Probability of a single vote given the true label.

    Returns 1 - coverage on abstention, accuracy * coverage on agreement,
    (1 - accuracy) * coverage on disagreement.
    """
    _check_label(label)
    if not (0.0 <= accuracy <= 1.0 and 0.0 <= coverage <= 1.0):
        raise DataError("accuracy and coverage must lie in [0, 1]")
    if vote == 0:
        return 1.0 - coverage
    if vote == label:
        return accuracy * coverage
    if vote == -label:
        return (1.0 - accuracy) * coverage
    raise DataError(f"vote must be in {{-1, 0, 1}}, got {vote}")


def _row_factors(row: np.ndarray, label: int, params: ModelParams) -> np.ndarray:
    acc, cov = params.accuracy, params.coverage
    agree = row == label
    disagree = row == -label
    abstain = row == 0
    return abstain * (1.0 - cov) + agree * (acc * cov) + disagree * ((1.0 - acc) * cov)


def class_joint(row, label: int, params: ModelParams, prior_prob: float) -> float:
    """Joint probability of one row and one class: prior * product of vote factors.

    Beta priors over accuracy/coverage do not enter here; they are added
    once, globally, in :func:`log_objective`.
    """
    _check_label(label)
    if not (0.0 <= prior_prob <= 1.0):
        raise DataError(f"class prior probability must lie in [0, 1], got {prior_prob}")
    row = as_label_vector(row)
    if row.shape[0] != params.m:
        raise DataError(f"row length {row.shape[0]} != parameter length {params.m}")
    return float(prior_prob * np.prod(_row_factors(row, label, params)))


def marginal(row, params: ModelParams, prior_pair) -> float:
    """Row marginal: sum of the two class joints under the given prior pair."""
    p_pos, p_neg = float(prior_pair[0]), float(prior_pair[1])
    if p_pos < 0 or p_neg < 0:
        raise DataError("class prior probabilities must be nonnegative")
    return class_joint(row, 1, params, p_pos) + class_joint(row, -1, params, p_neg)


def posterior_class_probs(row, params: ModelParams, prior_pair) -> tuple[float, float]:
    """Normalized posterior (P(label=+1), P(label=-1)) for one row.

    Raises DegenerateMarginalError when the marginal underflows below
    MARGINAL_FLOOR; the caller treats that row as a tie and abstains.
    """
    joint_pos = class_joint(row, 1, params, float(prior_pair[0]))
    joint_neg = class_joint(row, -1, params, float(prior_pair[1]))
    total = joint_pos + joint_neg
    if total < MARGINAL_FLOOR:
        raise DegenerateMarginalError(
            f"row marginal {total!r} underflowed below {MARGINAL_FLOOR}"
        )
    return joint_pos / total, joint_neg / total


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


def _clamped(params: ModelParams, clamp_eps: float) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = clamp_eps, 1.0 - clamp_eps
    return np.clip(params.accuracy, lo, hi), np.clip(params.coverage, lo, hi)


def log_likelihoods(votes: np.ndarray, params: ModelParams, clamp_eps: float = CLAMP_EPS) -> np.ndarray:
    """(n, 2) array of log P(row | label) for label = +1 (col 0) and -1 (col 1).

    Accuracy and coverage are clamped into the interior before logs.
    """
    if votes.shape[1] != params.m:
        raise DataError(f"matrix has {votes.shape[1]} columns but params have {params.m}")
    acc, cov = _clamped(params, clamp_eps)
    log_abstain = np.log1p(-cov)
    log_agree = np.log(acc) + np.log(cov)
    log_disagree = np.log1p(-acc) + np.log(cov)
    pos = votes == 1
    neg = votes == -1
    off = votes == 0
    base = off * log_abstain
    ll_pos = (base + pos * log_agree + neg * log_disagree).sum(axis=1)
    ll_neg = (base + neg * log_agree + pos * log_disagree).sum(axis=1)
    return np.column_stack([ll_pos, ll_neg])


def log_marginals(
    votes: np.ndarray,
    params: ModelParams,
    class_priors: np.ndarray,
    clamp_eps: float = CLAMP_EPS,
) -> np.ndarray:
    """(n,) log row marginals under per-row class prior pairs."""
    if class_priors.shape != (votes.shape[0], 2):
        raise DataError(
            f"class priors must have shape ({votes.shape[0]}, 2), got {class_priors.shape}"
        )
    ll = log_likelihoods(votes, params, clamp_eps)
    with np.errstate(divide="ignore"):
        log_prior = np.where(class_priors > 0.0, np.log(class_priors), -np.inf)
    joint = ll + log_prior
    return np.logaddexp(joint[:, 0], joint[:, 1])


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
        votes, params, pairs, accuracy_prior, include_priors, coverage_prior, clamp_eps
    )


def log_objective_given_pairs(
    votes: np.ndarray,
    params: ModelParams,
    class_priors: np.ndarray,
    accuracy_prior: BetaPrior | None = None,
    include_priors: bool = True,
    coverage_prior: BetaPrior | None = None,
    clamp_eps: float = CLAMP_EPS,
) -> float:
    """Same as :func:`log_objective` but with class prior pairs precomputed."""
    total = float(log_marginals(votes, params, class_priors, clamp_eps).sum())
    if include_priors and accuracy_prior is not None:
        if accuracy_prior.m != params.m:
            raise DataError(
                f"accuracy prior has {accuracy_prior.m} entries, params have {params.m}"
            )
        acc, cov = _clamped(params, clamp_eps)
        total += float(beta_log_density(acc, accuracy_prior).sum())
        if coverage_prior is not None:
            total += float(beta_log_density(cov, coverage_prior).sum())
    if not np.isfinite(total):
        raise NumericalError(f"log objective is non-finite ({total})")
    return total
