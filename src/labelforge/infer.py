"""Label assignment under the fitted model, with abstention tie-breaking.

Each row gets the more probable label under its posterior; exact ties
(within TIE_EPS, which covers all-abstain rows) abstain. When the label
prior carries ``force_abstain``, rows where the majority vote of the
matrix being predicted abstains are forced to abstain too, regardless of
the model posterior. Posteriors come from the log-domain kernel, so wide
matrices do not underflow. Rows that are impossible under both labels
(only parameters at exactly 0 or 1 allow that) abstain as degenerate
rather than raising, so batch prediction never aborts. A row's prediction
depends only on its votes, so matrices of up to 38 LFs are labelled once
per distinct vote pattern (majority vote, posterior, tie, forced and
degenerate masks included) and the results are copied back to the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError
from .model import (
    LabelPrior,
    ModelParams,
    VoteRows,
    as_lf_matrix,
    label_prior_pairs,
    posterior_log_odds,
)
from .priors import majority_vote, vote_fraction

TIE_EPS = 1e-12

REASON_NONE = "none"
REASON_TIE = "tie"
REASON_FORCED = "forced"
REASON_DEGENERATE = "degenerate"


class Prediction(NamedTuple):
    label: int
    score_pos: float
    abstain_reason: str


@dataclass
class Predictions:
    """Per-row predicted labels, positive-class scores, and abstain reasons."""

    labels: np.ndarray
    score_pos: np.ndarray
    abstain_reason: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, i: int) -> Prediction:
        return Prediction(
            int(self.labels[i]), float(self.score_pos[i]), str(self.abstain_reason[i])
        )

    def __iter__(self) -> Iterator[Prediction]:
        return (self[i] for i in range(len(self)))


def predict(votes, params: ModelParams, label_prior: LabelPrior | None = None) -> Predictions:
    """Most probable label per row under the model and label prior.

    Majority-vote anchors for the prior pairs (and for forced abstention)
    are always recomputed from the matrix being predicted.
    """
    label_prior = label_prior or LabelPrior()
    return predict_grouped(VoteRows.grouped(votes, label_prior.p), params, label_prior)


def predict_grouped(
    grouped: tuple[VoteRows, np.ndarray, np.ndarray | None],
    params: ModelParams,
    label_prior: LabelPrior,
) -> Predictions:
    """:func:`predict` over a matrix already grouped by
    :meth:`VoteRows.grouped`, with its own anchors and any ``p``: the class
    priors are rebuilt from ``label_prior.p``, so one grouping serves every
    model that labels the same matrix."""
    patterns, mv, inverse = grouped
    if patterns.d.shape[1] != params.m:
        raise DataError(f"matrix has {patterns.d.shape[1]} columns but params have {params.m}")
    # Rows with the same votes get the same prediction: label each distinct
    # pattern once, then copy its prediction to its rows.
    rows = patterns.with_class_priors(label_prior_pairs(mv, label_prior.p))

    odds, degenerate = posterior_log_odds(rows, params.accuracy, params.coverage)
    score_pos = np.exp(-np.logaddexp(0.0, -odds))
    score_neg = 1.0 - score_pos

    labels = np.zeros(rows.n, dtype=np.int8)
    reasons = np.full(rows.n, REASON_NONE, dtype="<U10")

    diff = score_pos - score_neg
    labels[diff > TIE_EPS] = 1
    labels[diff < -TIE_EPS] = -1
    reasons[(~degenerate) & (np.abs(diff) <= TIE_EPS)] = REASON_TIE
    labels[degenerate] = 0
    reasons[degenerate] = REASON_DEGENERATE

    if label_prior.force_abstain:
        forced = mv == 0
        labels[forced] = 0
        reasons[forced] = REASON_FORCED

    if inverse is not None:
        labels, score_pos, reasons = labels[inverse], score_pos[inverse], reasons[inverse]
    return Predictions(labels=labels, score_pos=score_pos, abstain_reason=reasons)


def majority_vote_predictions(votes) -> Predictions:
    """Majority vote dressed as predictions; scores are per-row vote fractions."""
    votes = as_lf_matrix(votes)
    labels = majority_vote(votes)
    reasons = np.where(labels == 0, REASON_TIE, REASON_NONE).astype("<U10")
    return Predictions(labels=labels, score_pos=vote_fraction(votes), abstain_reason=reasons)


def coverage(predictions: Predictions) -> float:
    """Fraction of rows with a non-abstaining predicted label."""
    if len(predictions) == 0:
        raise DataError("coverage of an empty prediction set is undefined")
    return float((predictions.labels != 0).sum() / len(predictions))
