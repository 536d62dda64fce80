"""Generative model of labeling-function votes.

A matrix of ternary votes (+1 / -1 / 0 = abstain) is modeled per entry:
an LF abstains with probability 1 - coverage, votes the true label with
probability accuracy * coverage, and votes the wrong label with
probability (1 - accuracy) * coverage. The true label of each row is a
latent Bernoulli variable, so the row marginal sums the class-conditional
joints over both labels. Beta priors over per-LF accuracies (and
optionally coverages) turn the log objective from plain likelihood into
a regularized one.

Every probability is computed in the log domain. The model factorises
per LF, so a row's two class log-likelihoods are linear in its votes: with
d the votes as float64, they are ``c + |d| @ g +- d @ h`` for per-LF
vectors h, g and a constant c, which one function builds from the
parameters. The label-free term ``c + |d| @ g`` is the same under both
labels, so it leaves the log-sum-exp of the row marginal, and its weighted
sum over rows is ``W c + count @ g`` for the weight total W and the per-LF
vote counts. The objective (:func:`log_objectives`) is therefore one
mat-vec ``d @ h`` plus O(m) work, and never builds |d|. ``d @ h``, half of
each row's vote log-likelihood ratio (:func:`half_log_ratios`), is also
where the accuracy gradient starts, and the posterior log-odds are
``2 d @ h`` plus the prior log-odds (:func:`posterior_log_odds`). These
three are the kernel; there is no per-row form of the class
log-likelihoods. Stacked (K, m) parameters, one row per cell of a grid,
turn the mat-vecs into mat-mats with one column per cell.
:meth:`VoteRows.of` is the one place a vote matrix and its class priors
are checked; every kernel function takes the converted rows and plain
per-LF vectors.

A row enters the model only through its votes and its prior pair, and the
pair follows from the row's majority-vote anchor, so rows with the same
votes and anchor are interchangeable. Each converted row carries a weight,
and every sum over rows (the objective's log marginals, the gradient's
vote masses, the vote counts) is weighted. :meth:`VoteRows.grouped` keeps
one row per distinct (pattern, anchor) pair with its count as weight, so a
full-batch pass costs O(patterns) rather than O(rows): at most 3^m
patterns, about 12k in 100k rows of 10 LFs. It keys rows by a base-3 int64
code, which fits up to MAX_PATTERN_LFS = 38 LFs; wider matrices keep one
row per input row with weight 1. The objective and its
gradients clamp accuracies and coverages into [CLAMP_EPS, 1 - CLAMP_EPS]
so every log stays finite; prediction uses the parameters as given, and a
row that is impossible under both labels (only parameters at exactly 0 or
1 allow that) comes back as degenerate, never as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError

# Clamp applied to accuracy/coverage before log evaluation; initialization
# at exactly 1.0 must still yield a finite objective.
CLAMP_EPS = 1e-6

VALID_VOTES = (-1, 0, 1)

# Widest matrix whose rows :meth:`VoteRows.grouped` keys by vote pattern: the
# base-3 key of m votes and an anchor is below 3^(m + 1), and 3^39 < 2^63.
MAX_PATTERN_LFS = 38

# Entries of |d| that VoteRows.count holds at once: 256 KiB of float64.
_COUNT_BLOCK = 1 << 15


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
    """Per-LF beta-distribution pseudo-count parameters (u, v), all positive:
    m-vectors, or (K, m) arrays with one row per cell of a stacked fit.

    ``log_norm`` holds each LF's log beta function log B(u, v), computed once
    when the prior is built.
    """

    u: np.ndarray
    v: np.ndarray
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim not in (1, 2) or u.shape != v.shape:
            raise DataError(f"u/v must be equal-length vectors, got {u.shape} and {v.shape}")
        if (u <= 0).any() or (v <= 0).any() or not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise DataError("beta prior parameters must be finite and > 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
        log_gamma = []
        for name, x in (("u", u), ("v", v), ("u + v", u + v)):
            try:
                log_gamma.append(lgamma(x))
            except OverflowError:  # log Gamma(x) passes the float range near 2.5e305
                raise DataError(
                    f"beta prior {name} is too large for its log beta function: "
                    f"got {x.max():g}, the limit is about 2.5e305"
                ) from None
        lgamma_u, lgamma_v, lgamma_uv = log_gamma
        object.__setattr__(self, "log_norm", lgamma_u + lgamma_v - lgamma_uv)

    @property
    def m(self) -> int:
        return self.u.shape[-1]

    def mean(self) -> np.ndarray:
        return self.u / (self.u + self.v)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Elementwise log beta density, x assumed strictly inside (0, 1)."""
        return (self.u - 1.0) * np.log(x) + (self.v - 1.0) * np.log1p(-x) - self.log_norm

    def log_density_grad(self, x: np.ndarray) -> np.ndarray:
        """Elementwise derivative of :meth:`log_density` with respect to x."""
        return (self.u - 1.0) / x - (self.v - 1.0) / (1.0 - x)


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


def row_majority(votes: np.ndarray) -> np.ndarray:
    """Per-row unweighted majority vote of a checked int8 vote matrix: the
    sign of the vote sum, so ties and all-abstain rows yield 0."""
    return np.sign(votes.sum(axis=1)).astype(np.int8)


def _log_class_priors(class_priors: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # a prior of 0 gives -inf
        return np.log(class_priors)


@dataclass(frozen=True, eq=False)
class VoteRows:
    """Rows of a vote matrix converted once for the log-joint kernel.

    ``d`` holds the votes as float64, ``w`` the rows' weights (the number of
    input rows each stands for: 1, or a pattern's count from
    :meth:`grouped`), and ``log_prior`` the rows' (n, 2) log class priors
    (-inf where a prior is 0). ``count`` is the weighted number of votes
    each LF cast and ``total`` the weight total; each is computed on first
    use, so prediction, which reads only ``d`` and ``log_prior``, never
    builds them.
    """

    d: np.ndarray
    w: np.ndarray
    log_prior: np.ndarray

    @classmethod
    def of(cls, votes, class_priors=None) -> "VoteRows":
        """Check a vote matrix and its (n, 2) class prior pairs (symmetric
        when None), and convert them for the kernel with unit weights."""
        votes = as_lf_matrix(votes)
        n = votes.shape[0]
        if class_priors is None:
            class_priors = np.full((n, 2), 0.5)
        class_priors = np.asarray(class_priors, dtype=np.float64)
        if class_priors.shape != (n, 2):
            raise DataError(f"class priors must have shape ({n}, 2), got {class_priors.shape}")
        if not (class_priors >= 0).all():
            raise DataError("class prior probabilities must be numbers >= 0")
        return cls._converted(votes, class_priors, np.ones(n))

    @classmethod
    def grouped(
        cls, votes, p: float, anchors=None
    ) -> tuple["VoteRows", np.ndarray, np.ndarray | None]:
        """The distinct (row, anchor) pairs of a vote matrix, each weighted by
        how often it occurs, with the prior pairs of :func:`label_prior_pairs`.

        ``anchors`` of None anchors each row to its own majority vote. Each
        row is keyed by the base-3 code of its votes with the anchor as the
        last digit, and the keys are made unique; that fits an int64 up to
        MAX_PATTERN_LFS columns. Returns the rows, their anchors and the
        index ``inverse`` that maps each input row to its pattern
        (``rows.d[inverse]`` is the input). Wider matrices come back as
        their own rows with unit weights, and ``inverse`` is None.
        """
        votes = as_lf_matrix(votes)
        n, m = votes.shape
        if anchors is not None:
            anchors = as_label_vector(anchors)
            if anchors.shape[0] != n:
                raise DataError(f"label prior covers {anchors.shape[0]} rows, matrix has {n}")
        if m > MAX_PATTERN_LFS:
            anchors = row_majority(votes) if anchors is None else anchors
            return cls._converted(votes, label_prior_pairs(anchors, p), np.ones(n)), anchors, None

        # digits v + 1 of the votes, then anchor + 1 (0 without anchors)
        key = (votes + 1) @ 3 ** np.arange(m, 0, -1, dtype=np.int64)
        if anchors is not None:
            key += anchors + 1
        _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
        one_row = np.empty(counts.shape[0], dtype=np.intp)
        one_row[inverse] = np.arange(n)  # the rows of a key are all alike
        patterns = votes[one_row]
        anchors = row_majority(patterns) if anchors is None else anchors[one_row]
        pairs = label_prior_pairs(anchors, p)
        return cls._converted(patterns, pairs, counts.astype(np.float64)), anchors, inverse

    @classmethod
    def _converted(cls, votes: np.ndarray, class_priors: np.ndarray, w: np.ndarray) -> "VoteRows":
        return cls(votes.astype(np.float64), w, _log_class_priors(class_priors))

    def with_class_priors(self, class_priors: np.ndarray) -> "VoteRows":
        """The same rows and weights under other (n, 2) class prior pairs."""
        return VoteRows(self.d, self.w, _log_class_priors(class_priors))

    @property
    def n(self) -> int:
        """The number of rows held (patterns, for grouped rows)."""
        return self.d.shape[0]

    @cached_property
    def count(self) -> np.ndarray:
        # w @ |d| a block of rows at a time, so no |d|-sized array is built.
        # With integer weights every partial sum is an integer, so the blocks
        # add up to exactly w @ |d|.
        step = max(1, _COUNT_BLOCK // self.d.shape[1])
        count = self.w[:step] @ np.abs(self.d[:step])
        for lo in range(step, self.n, step):
            count += self.w[lo : lo + step] @ np.abs(self.d[lo : lo + step])
        return count

    @cached_property
    def total(self) -> float:
        return float(self.w.sum())

    def take(self, idx: np.ndarray) -> "VoteRows":
        return VoteRows(self.d[idx], self.w[idx], self.log_prior[idx])


def _clamped(rows: VoteRows, *params) -> list[np.ndarray]:
    """Per-LF parameter vectors clamped into [CLAMP_EPS, 1 - CLAMP_EPS] so
    every log stays finite, after checking each has one entry per column."""
    m = rows.d.shape[1]
    for vec in params:
        if len(vec) != m:
            raise DataError(f"matrix has {m} columns but params have {len(vec)}")
    return [np.clip(vec, CLAMP_EPS, 1.0 - CLAMP_EPS) for vec in params]


def _kernel(accuracy: np.ndarray, coverage: np.ndarray):
    """Per-LF vectors (h, g, c) of the log-joint kernel and the (3, m) mask
    ``zero`` of votes that have probability 0. For (K, m) parameters, one row
    per cell, h and g are (K, m), c is a K-vector and ``zero`` is (3, K, m).

    Under label +1, vote v of LF j has log probability ``logf[v + 1, j]``:
    log((1-a) b), log(1-b) and log(a b) for v = -1, 0, +1, with a the
    accuracy and b the coverage. Under label -1 the vote is negated. So with
    d the float votes, the class log-likelihoods are ``c + |d| @ g + d @ h``
    (+1) and ``c + |d| @ g - d @ h`` (-1). A factor of 0 (a parameter at
    exactly 0 or 1, which a model file can hold) is left out of h, g and c
    and marked in ``zero``, so no 0 * -inf makes a NaN. Every kernel
    function takes h from here, so all of them agree on it bit for bit.
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
    return h, g, logf[1].sum(axis=-1), zero


def _impossible(votes: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """(n, 2) mask of rows casting a vote of probability 0 under label +1
    (col 0) and -1 (col 1), from the ``zero`` mask of :func:`_kernel`."""
    cols = np.flatnonzero(zero.any(axis=0))
    v = votes[:, cols].astype(np.intp)
    return np.stack([zero[v + 1, cols].any(axis=1), zero[1 - v, cols].any(axis=1)], axis=1)


def half_log_ratios(rows: VoteRows, accuracy: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """``d @ h``: half of each row's vote log-likelihood ratio
    log P(votes | +1) - log P(votes | -1), for parameters strictly inside
    (0, 1). An n-vector for m-vector parameters, (n, K) for stacked (K, m)
    ones.

    The objective and the accuracy gradient both start from this mat-vec
    over the same h, so a value computed for one equals, bit for bit, the
    one the other would compute at the same parameters.
    """
    return rows.d @ _kernel(accuracy, coverage)[0].T


def posterior_log_odds(
    rows: VoteRows, accuracy: np.ndarray, coverage: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log P(+1 | row) - log P(-1 | row), and the mask of degenerate
    rows, which are impossible under both labels (their log-odds are 0).

    Parameters are used as given, so they may sit at exactly 0 or 1; a row
    impossible under one label only gets log-odds -inf or +inf.
    """
    h, _, _, zero = _kernel(accuracy, coverage)
    log_w = rows.log_prior.copy()
    if zero.any():
        log_w[_impossible(rows.d, zero)] = -np.inf
    degenerate = (log_w == -np.inf).all(axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on degenerate rows
        odds = 2.0 * (rows.d @ h) + (log_w[:, 0] - log_w[:, 1])
    odds[degenerate] = 0.0
    return odds, degenerate


def log_objectives(
    rows: VoteRows,
    log_prior: np.ndarray,
    accuracy: np.ndarray,
    coverage: np.ndarray,
    accuracy_prior: BetaPrior | None = None,
    coverage_prior: BetaPrior | None = None,
    dh: np.ndarray | None = None,
) -> np.ndarray:
    """Log objective of K cells at once: the weighted sum of the rows' log
    marginals under each cell's class priors, plus the cells' beta log
    densities where given.

    ``accuracy`` and ``coverage`` are (K, m), one row per cell, inside the
    clamp; ``log_prior`` is the rows' (n, 2, K) log class priors. Returns a
    K-vector, non-finite for a cell whose objective is; nothing is checked,
    so a cell that fails leaves the others alone. With m-vectors and (n, 2)
    log priors it returns the one objective as a 0-d array. ``dh`` is the
    rows' :func:`half_log_ratios` at these parameters, computed here when
    None.

    A row's marginal is ``logaddexp(dh + lp+, lp- - dh)`` plus the label-free
    ``c + |d| @ g``, and the weighted sum of the latter over the rows is
    ``total * c + g @ count``: one mat-vec over the votes in all.
    """
    h, g, c, _ = _kernel(accuracy, coverage)
    if dh is None:
        dh = rows.d @ h.T
    marginal = dh + log_prior[:, 0]
    np.logaddexp(marginal, log_prior[:, 1] - dh, out=marginal)
    total = rows.w @ marginal + (rows.total * c + g @ rows.count)
    for prior, x in ((accuracy_prior, accuracy), (coverage_prior, coverage)):
        if prior is not None:
            total = total + prior.log_density(x).sum(axis=-1)
    return total


def log_objective(
    rows: VoteRows,
    accuracy: np.ndarray,
    coverage: np.ndarray,
    accuracy_prior: BetaPrior | None = None,
    coverage_prior: BetaPrior | None = None,
) -> float:
    """Total log objective: the weighted sum of the rows' log marginals under
    their class priors, plus the beta log densities of the accuracy prior and of
    the coverage prior (learned-coverage variant) where given.

    With no beta prior this is the plain likelihood objective.
    """
    acc, cov = _clamped(rows, accuracy, coverage)
    for prior, x in ((accuracy_prior, acc), (coverage_prior, cov)):
        if prior is not None and prior.m != x.shape[0]:
            raise DataError(f"beta prior has {prior.m} entries, params have {x.shape[0]}")
    total = float(
        log_objectives(rows, rows.log_prior, acc, cov, accuracy_prior, coverage_prior)
    )
    if not np.isfinite(total):
        raise NumericalError(f"log objective is non-finite ({total})")
    return total
