"""Linear-space row reference for the model's log-joint kernel.

Everything here works one row at a time on plain probabilities: a vote's
probability given the label, products of them per class, their sum per row,
and the posterior and gradient that follow. It is the textbook form of the
model, kept as the reference that the kernel's mat-vecs are tested against.
It underflows on wide rows, so tests use it on a few LFs only. The data
statistics the model is built from, each LF's coverage and its accuracy
against a reference vote, are given per column here too.
"""

import math

import numpy as np


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


def prior_odds(rows) -> np.ndarray:
    """Half the prior log-odds of each row, (log P(+1) - log P(-1)) / 2, read
    from its class priors: the form in which ``train.grad_accuracy`` takes a
    cell's label prior."""
    return 0.5 * (rows.log_prior[:, 0] - rows.log_prior[:, 1])


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
