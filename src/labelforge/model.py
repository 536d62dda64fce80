"""Generative model of labeling-function votes.

A matrix of ternary votes (+1 / -1 / 0 = abstain) is modeled per entry:
an LF abstains with probability 1 - coverage, votes the true label with
probability accuracy * coverage, and votes the wrong label with
probability (1 - accuracy) * coverage. The true label of each row is a
latent Bernoulli variable, so the row marginal sums the class-conditional
joints over both labels. Beta priors over per-LF accuracies turn the log
objective from plain likelihood into a regularized one.

Every probability is computed in the log domain. An entry's probability
is a coverage factor (the LF votes, with probability b) times, for a vote,
an accuracy factor (the vote is right, with probability a). The coverage
factor is the same under both labels, so it cancels from every posterior
and from the accuracy gradient, and the kernel reads accuracies only.
With d the votes as float64, a row's class log-likelihoods are
``|d| @ g +- d @ h`` plus its coverage term, for per-LF vectors h and g
that one function builds. Label-free terms leave the log-sum-exp of the
row marginal, and the weighted sum of ``|d| @ g`` over rows is
``count @ g`` for the per-LF vote counts, so the objective
(:func:`log_objectives`) is one mat-vec ``d @ h`` plus O(m) work; its
coverage half is :func:`coverage_objectives`. ``d @ h``, half of each
row's vote log-likelihood ratio (:func:`half_log_ratios`), is also where
the accuracy gradient starts, and the posterior log-odds are ``2 d @ h``
plus the prior log-odds (:func:`posterior_log_odds`). These three are the
kernel. Stacked (K, m) parameters, one row per cell of a grid, turn the
mat-vecs into mat-mats. :meth:`VoteRows.of` and :meth:`VoteRows.grouped`
are the one place a vote matrix is checked; every kernel function takes
the converted rows and plain per-LF vectors.

A row's label prior follows from its anchor, the majority vote of its own
votes (-1, 0 or +1), and the cell's ``p``. The anchor is computed where
the rows are converted, so the label prior always anchors to the matrix
being fitted or labelled. The kernel reads the class priors from one
(3, K) table of log priors indexed by anchor (:func:`class_prior_table`).
Rows with the same votes are therefore interchangeable. Each converted
row carries a weight, and every sum over rows (the objective's log
marginals, the gradient's vote masses, the vote counts) is weighted.
:meth:`VoteRows.grouped` keeps one row per distinct vote pattern with its
count as weight, so a full-batch pass costs O(patterns) rather than
O(rows): at most 3^m patterns, about 12k in 100k rows of 10 LFs, found by
:func:`group_rows`, the one exact row grouper, which dataio uses too.
Training keeps accuracies and coverages inside [CLAMP_EPS, 1 - CLAMP_EPS]
so every log stays finite; prediction uses the accuracies as given, and a
row that is impossible under both labels (only accuracies at exactly 0 or
1 allow that) comes back as degenerate, never as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

# Clamp applied to accuracy/coverage before log evaluation; initialization
# at exactly 1.0 must still yield a finite objective.
CLAMP_EPS = 1e-6

VALID_VOTES = (-1, 0, 1)

# Columns of a run that :meth:`VoteRows.grouped` keys by the base-3 code of
# its votes, an int64 below 3^38 (3^39 < 2^63). Wider rows take one code per
# run of this many columns, which :func:`group_rows` hashes into one key.
MAX_PATTERN_LFS = 38

# Entries of |d| that VoteRows.count holds at once, 256 KiB of float64, and
# of the int64 votes and float64 patterns that VoteRows.grouped builds at once.
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
    """Bernoulli prior over latent labels, anchored to each row's majority vote.

    ``p`` is the probability mass placed on the majority-vote label of each
    row of the matrix being fitted or labelled; rows whose majority vote
    abstains get the uninformative (0.5, 0.5) pair. ``force_abstain`` makes
    prediction abstain on those rows.
    """

    p: float = 0.5
    force_abstain: bool = False

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise DataError(f"label prior p must lie in [0.5, 1], got {self.p}")


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


def row_majority(votes: np.ndarray) -> np.ndarray:
    """Per-row unweighted majority vote of a checked vote matrix, int8 or its
    float64 copy: the sign of the vote sum, so ties and all-abstain rows
    yield 0."""
    return np.sign(votes.sum(axis=1)).astype(np.int8)


def class_prior_table(p) -> np.ndarray:
    """Log class prior of label +1 for a row anchored at -1, 0 and +1 (table
    rows 0, 1 and 2), for a scalar ``p`` or, one column per cell, a K-vector.

    The anchor's label gets mass p, the other label 1 - p, and both labels
    0.5 on a row whose majority vote abstains. Label -1 reads the table in
    reverse, so a row anchored at a has the log class priors
    ``table[a + 1]`` (+1) and ``table[1 - a]`` (-1). p = 1 gives -inf,
    never NaN.
    """
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(np.stack([1.0 - p, np.full_like(p, 0.5), p]))


def _mix(key: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer (Steele, Lea & Flood, OOPSLA 2014), in place."""
    key ^= key >> np.uint64(30)
    key *= np.uint64(0xBF58476D1CE4E5B9)
    key ^= key >> np.uint64(27)
    key *= np.uint64(0x94D049BB133111EB)
    key ^= key >> np.uint64(31)
    return key


def group_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of integer columns: (first, inverse), where
    ``first[g]`` is a row of group g and ``inverse[i]`` the group of row i.
    The groups are exactly the distinct rows.

    One column is its own key, and its groups come in ascending order, as
    np.unique returns them. More columns are folded into one uint64 key per
    row through :func:`_mix`, and their groups come in key order; the rows
    that differ from their group's first row after all (a hash collision)
    are grouped again among themselves by their values.
    """
    key = columns[0]
    if len(columns) > 1:
        key = np.zeros(key.shape[0], dtype=np.uint64)
        for col in columns:
            key ^= col.astype(np.uint64, copy=False)
            key = _mix(key)
    order = np.argsort(key)
    key = key[order]
    starts = np.empty(key.size, dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    del key
    first = order[starts]
    group = np.cumsum(starts) - 1
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = group
    del order, starts, group
    if len(columns) == 1:
        return first, inverse
    differs = np.zeros(inverse.size, dtype=bool)
    for col in columns:
        differs |= col[first][inverse] != col
    odd = np.flatnonzero(differs)
    if odd.size:  # rare: np.unique over just those rows
        rows = np.stack([col[odd].astype(np.uint64) for col in columns], axis=1)
        _, odd_first, odd_inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        inverse[odd] = first.size + odd_inverse.reshape(-1)  # its shape varies by numpy release
        first = np.concatenate([first, odd[odd_first]])
    return first, inverse


@dataclass(frozen=True, eq=False)
class VoteRows:
    """Rows of a vote matrix converted once for the log-joint kernel.

    ``d`` holds the votes as float64, ``w`` the rows' weights (the number of
    input rows each stands for: 1, or a pattern's count from
    :meth:`grouped`), and ``anchor`` the rows' int8 majority-vote anchors,
    which index the table of :func:`class_prior_table`. ``count`` is the
    weighted number of votes each LF cast and ``total`` the weight total;
    each is computed on first use, so prediction, which reads only ``d``
    and ``anchor``, never builds them. :meth:`of` and :meth:`grouped` check
    a vote matrix and convert it; training builds each minibatch's rows
    straight from the checked int8 votes of the batch.
    """

    d: np.ndarray
    w: np.ndarray
    anchor: np.ndarray

    @classmethod
    def of(cls, votes) -> "VoteRows":
        """Check a vote matrix and convert it for the kernel, each row with
        unit weight and anchored to its own majority vote."""
        votes = as_lf_matrix(votes)
        return cls(votes.astype(np.float64), np.ones(votes.shape[0]), row_majority(votes))

    @classmethod
    def grouped(cls, votes) -> tuple["VoteRows", np.ndarray]:
        """The distinct rows (vote patterns) of a vote matrix, each weighted
        by how often it occurs and anchored to its own majority vote.

        Each row is keyed by the base-3 codes of its votes, one int64 per
        run of MAX_PATTERN_LFS columns, grouped by :func:`group_rows`.
        Returns the patterns and the index ``inverse`` that maps each input
        row to its pattern (``rows.d[inverse]`` is the input,
        ``rows.anchor[inverse]`` its rows' anchors).
        """
        votes = as_lf_matrix(votes)
        n, m = votes.shape
        width = min(m, MAX_PATTERN_LFS)
        runs = -(-m // width)
        powers = 3 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        step = max(1, _COUNT_BLOCK // m)
        padded = np.zeros((min(n, step), runs * width), dtype=np.int64)  # past column m: 0
        keys = np.empty((n, runs), dtype=np.int64)
        for lo in range(0, n, step):  # no (n, m) int64 temporary
            block = padded[: min(step, n - lo)]
            np.add(votes[lo : lo + step], 1, out=block[:, :m])
            keys[lo : lo + step] = block.reshape(-1, runs, width) @ powers
        first, inverse = group_rows(*keys.T)
        del padded, block, keys
        # gathered straight into float64, with no int8 copy of the patterns
        d = np.empty((first.shape[0], m))
        for lo in range(0, first.shape[0], step):
            d[lo : lo + step] = votes[first[lo : lo + step]]
        w = np.bincount(inverse, minlength=first.shape[0]).astype(np.float64)
        return cls(d, w, row_majority(d)), inverse

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

    def class_priors(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows' log class priors of label +1 and of label -1, read from a
        :func:`class_prior_table`: n-vectors for a scalar ``p``, (n, K)
        arrays for K cells."""
        idx = self.anchor + 1
        return table[idx], table[2 - idx]


def _kernel(accuracy: np.ndarray):
    """Per-LF vectors (h, g) of the log-joint kernel and the (3, m) mask
    ``zero`` of votes that have probability 0; (K, m) and (3, K, m) for
    (K, m) accuracies, one row per cell.

    Under label +1, vote v of LF j has the log accuracy factor
    ``logf[v + 1, j]``: log(1 - a), 0 and log a for v = -1, 0, +1; under
    label -1 the vote is negated. So the class log-likelihoods are
    ``|d| @ g +- d @ h`` plus the label-free coverage term. A factor of 0
    (an accuracy of exactly 0 or 1, which a model file can hold) is left
    out of h and g and marked in ``zero``, so no 0 * -inf makes a NaN.
    Every kernel function takes h from here, so all agree on it bit for bit.
    """
    with np.errstate(divide="ignore"):
        logf = np.array([np.log1p(-accuracy), np.zeros_like(accuracy), np.log(accuracy)])
    zero = logf == -np.inf
    logf[zero] = 0.0
    return 0.5 * (logf[2] - logf[0]), 0.5 * (logf[2] + logf[0]), zero


def coverage_objectives(rows: VoteRows, coverage: np.ndarray) -> np.ndarray:
    """The coverage half of the log objective, which :func:`log_objectives`
    leaves out as it is the same under both labels: ``count @ log b +
    (total - count) @ log(1 - b)``, shaped as :func:`log_objectives`. A
    coverage of exactly 0 or 1 adds 0 where the rows agree with it and -inf
    where they do not."""
    with np.errstate(divide="ignore"):
        log_b = np.where(rows.count > 0, np.log(coverage), 0.0)
        log_not_b = np.where(rows.count < rows.total, np.log1p(-coverage), 0.0)
    return log_b @ rows.count + log_not_b @ (rows.total - rows.count)


def _impossible(votes: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """(n, 2) mask of rows casting a vote of probability 0 under label +1
    (col 0) and -1 (col 1), from the ``zero`` mask of :func:`_kernel`."""
    cols = np.flatnonzero(zero.any(axis=0))
    v = votes[:, cols].astype(np.intp)
    return np.stack([zero[v + 1, cols].any(axis=1), zero[1 - v, cols].any(axis=1)], axis=1)


def half_log_ratios(rows: VoteRows, accuracy: np.ndarray) -> np.ndarray:
    """``d @ h``: half of each row's vote log-likelihood ratio
    log P(votes | +1) - log P(votes | -1), for accuracies strictly inside
    (0, 1): an n-vector for an m-vector, (n, K) for stacked (K, m) ones.
    The objective and the accuracy gradient both start from it, so a value
    computed for one equals the other's at the same accuracies bit for bit.
    """
    return rows.d @ _kernel(accuracy)[0].T


def posterior_log_odds(
    rows: VoteRows, prior_table: np.ndarray, accuracy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log P(+1 | row) - log P(-1 | row) under the class priors of
    the one-cell ``prior_table`` (:func:`class_prior_table` of a scalar p),
    and the mask of degenerate rows, which are impossible under both labels
    (their log-odds are 0).

    Accuracies are used as given, so they may sit at exactly 0 or 1; a row
    impossible under one label only gets log-odds -inf or +inf.
    """
    h, _, zero = _kernel(accuracy)
    log_w = np.stack(rows.class_priors(prior_table), axis=1)
    if zero.any():
        log_w[_impossible(rows.d, zero)] = -np.inf
    degenerate = (log_w == -np.inf).all(axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on degenerate rows
        odds = 2.0 * (rows.d @ h) + (log_w[:, 0] - log_w[:, 1])
    odds[degenerate] = 0.0
    return odds, degenerate


def log_objectives(
    rows: VoteRows,
    prior_table: np.ndarray,
    accuracy: np.ndarray,
    accuracy_prior: BetaPrior | None = None,
    dh: np.ndarray | None = None,
) -> np.ndarray:
    """Log objective of K cells at once, less its coverage half
    (:func:`coverage_objectives`): the weighted sum of the rows' log
    marginals under each cell's class priors, plus the cells' accuracy-prior
    log densities where given.

    ``accuracy`` is (K, m), one row per cell, inside the clamp;
    ``prior_table`` is the cells' (3, K) :func:`class_prior_table`.
    Returns a K-vector, non-finite for a cell whose objective is; nothing is
    checked, so a cell that fails leaves the others alone. With an m-vector
    and the (3,) table of a scalar p it returns the one objective as a 0-d
    array. ``dh`` is the rows' :func:`half_log_ratios` at these accuracies,
    computed here when None.

    A row's marginal is ``logaddexp(dh + lp+, lp- - dh)`` plus the label-free
    ``|d| @ g``, and the weighted sum of the latter over the rows is
    ``g @ count``: one mat-vec over the votes in all.
    """
    h, g, _ = _kernel(accuracy)
    if dh is None:
        dh = rows.d @ h.T
    # The two gathers are fresh arrays, so they hold the sums in place.
    marginal, prior_neg = rows.class_priors(prior_table)
    marginal += dh
    np.subtract(prior_neg, dh, out=prior_neg)
    np.logaddexp(marginal, prior_neg, out=marginal)
    total = rows.w @ marginal + g @ rows.count
    if accuracy_prior is not None:
        total = total + accuracy_prior.log_density(accuracy).sum(axis=-1)
    return total
