"""Linear-space row reference for the model's log-joint kernel.

Everything here works one row at a time on plain probabilities: a vote's
probability given the label, products of them per class, their sum per row,
and the posterior and gradient that follow. It is the textbook form of the
model, kept as the reference that the kernel's mat-vecs are tested against.
It underflows on wide rows, so tests use it on a few LFs only. The data
statistics the model is built from, each LF's coverage and its accuracy
against a reference vote, are given per column here too, and so are each
row's class prior pair under a majority-vote anchor.

Last, ``log_objective`` is the kernel's objective of one model (its
accuracy half plus its coverage half) with its inputs checked and its
parameters clamped, the form the tests use where
they need the objective itself (finite differences, bitwise comparisons),
``anchored_rows`` converts votes with anchors of the caller's choosing,
so that the kernel can be held to the reference under any pair of class
priors, not only those of the rows' majority votes, ``ungrouped`` is the
row path that grouped rows are held to (one unit-weight row per input
row), and ``batch_rows`` selects a minibatch of converted rows. Apart
from the model, ``collect_aggregates`` indexes the mean and std rows of a
sweep's results.
"""

import math

import numpy as np

from labelforge.errors import DataError, NumericalError
from labelforge.model import (
    CLAMP_EPS,
    VoteRows,
    class_prior_table,
    coverage_objectives,
    log_objectives,
)


def factor(vote: int, label: int, acc: float, cov: float) -> float:
    """P(vote | label) for one LF."""
    if vote == 0:
        return 1.0 - cov
    return acc * cov if vote == label else (1.0 - acc) * cov


def class_joint(row, label: int, acc, cov, prior: float = 1.0) -> float:
    """prior * P(row | label)."""
    out = prior
    for vote, a, b in zip(row, acc, cov):
        out *= factor(int(vote), label, float(a), float(b))
    return out


def marginal(row, acc, cov, pair) -> float:
    return class_joint(row, 1, acc, cov, pair[0]) + class_joint(row, -1, acc, cov, pair[1])


def posterior(row, acc, cov, pair) -> tuple[float, float]:
    """(P(+1 | row), P(-1 | row))."""
    pos = class_joint(row, 1, acc, cov, pair[0])
    neg = class_joint(row, -1, acc, cov, pair[1])
    return pos / (pos + neg), neg / (pos + neg)


def beta_log_pdf(x: float, u: float, v: float) -> float:
    norm = math.lgamma(u) + math.lgamma(v) - math.lgamma(u + v)
    return (u - 1.0) * math.log(x) + (v - 1.0) * math.log(1.0 - x) - norm


def objective(votes, acc, cov, pairs, prior=None) -> float:
    """Sum of log row marginals plus the accuracy prior's log density."""
    total = sum(math.log(marginal(row, acc, cov, pair)) for row, pair in zip(votes, pairs))
    if prior is not None:
        total += sum(beta_log_pdf(a, u, v) for a, u, v in zip(acc, prior.u, prior.v))
    return total


def grad_accuracy(votes, acc, cov, pairs, prior=None, weight: float = 1.0) -> np.ndarray:
    """d objective / d accuracy: each vote adds its posterior probability of
    agreeing over acc minus that of disagreeing over 1 - acc."""
    grad = np.zeros(len(acc))
    for row, pair in zip(votes, pairs):
        w_pos, w_neg = posterior(row, acc, cov, pair)
        for j, vote in enumerate(row):
            if vote == 0:
                continue
            agree = w_pos if vote == 1 else w_neg
            grad[j] += agree / acc[j] - (1.0 - agree) / (1.0 - acc[j])
    if prior is not None:
        grad += weight * ((prior.u - 1.0) / acc - (prior.v - 1.0) / (1.0 - acc))
    return grad


def pairs(anchors, p: float) -> np.ndarray:
    """Per-row (P(+1), P(-1)) class priors: p on the anchor's label and
    1 - p on the other, or 0.5 each where the anchor is 0."""
    out = np.full((len(anchors), 2), 0.5)
    for row, anchor in enumerate(anchors):
        if anchor != 0:
            out[row] = (p, 1.0 - p) if anchor == 1 else (1.0 - p, p)
    return out


def coverage(votes) -> np.ndarray:
    """Observed coverage rate per column: the fraction of rows that vote."""
    votes = np.asarray(votes)
    return (votes != 0).sum(axis=0) / votes.shape[0]


def column_accuracy(column, reference) -> float | None:
    """Fraction of agreements between an LF column and a reference vector,
    counted over the rows where both vote; None when there is no such row."""
    column, reference = np.asarray(column), np.asarray(reference)
    both = (column != 0) & (reference != 0)
    if not both.any():
        return None
    return float((column[both] == reference[both]).sum() / both.sum())


def log_objective(rows, p, accuracy, coverage, accuracy_prior=None, coverage_prior=None) -> float:
    """The log objective of one model over converted rows under label prior
    ``p``: the parameters are checked against the matrix and the priors, and
    clamped into [CLAMP_EPS, 1 - CLAMP_EPS], and a non-finite total raises."""
    m = rows.d.shape[1]
    for vec in (accuracy, coverage):
        if len(vec) != m:
            raise DataError(f"matrix has {m} columns but params have {len(vec)}")
    acc, cov = (np.clip(vec, CLAMP_EPS, 1.0 - CLAMP_EPS) for vec in (accuracy, coverage))
    for prior in (accuracy_prior, coverage_prior):
        if prior is not None and prior.m != m:
            raise DataError(f"beta prior has {prior.m} entries, params have {m}")
    table = class_prior_table(p)
    accuracy_half = log_objectives(rows, table, acc, accuracy_prior)
    coverage_half = coverage_objectives(rows, cov)
    if coverage_prior is not None:
        coverage_half = coverage_half + coverage_prior.log_density(cov).sum()
    total = float(accuracy_half + coverage_half)
    if not np.isfinite(total):
        raise NumericalError(f"log objective is non-finite ({total})")
    return total


def anchored_rows(votes, anchors) -> VoteRows:
    """Unit-weight rows of the kernel for ``votes``, each anchored to the
    caller's entry of ``anchors`` (-1, 0 or +1) instead of its own majority
    vote."""
    votes = np.asarray(votes, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.int8)
    assert votes.ndim == 2 and anchors.shape == votes.shape[:1]
    assert np.isin(anchors, (-1, 0, 1)).all()
    return VoteRows(votes, np.ones(votes.shape[0]), anchors)


def ungrouped(votes) -> tuple[VoteRows, np.ndarray]:
    """:meth:`VoteRows.grouped`'s result without the grouping: every input
    row as its own unit-weight row, and the identity as ``inverse``."""
    rows = VoteRows.of(votes)
    return rows, np.arange(rows.n)


def batch_rows(rows: VoteRows, idx) -> VoteRows:
    """The rows of ``rows`` at ``idx``, with their weights and anchors: a
    minibatch as training draws it."""
    return VoteRows(rows.d[idx], rows.w[idx], rows.anchor[idx])


def collect_aggregates(rows: list[dict]) -> dict[tuple, float | None]:
    """Index a sweep's aggregate rows by (mode, size, metric, stat)."""
    return {
        (row["mode"], row["size"], row["metric"], row["replicate"]): row["value"]
        for row in rows
        if row["replicate"] in ("mean", "std")
    }
