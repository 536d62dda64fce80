"""Label assignment under the fitted model, with abstention tie-breaking.

Each row gets the more probable label under its posterior; exact ties
(within TIE_EPS, which covers all-abstain rows) abstain. When the label
prior carries ``force_abstain``, rows where the majority vote of the
matrix being predicted abstains are forced to abstain too, regardless of
the model posterior. Posteriors come from the log-domain kernel, so wide
matrices do not underflow, and read only the accuracies: coverage is the
same under both labels. Rows that are impossible under both labels (only
votes against accuracies of exactly 0 or 1 allow that) abstain as
degenerate rather than raising, so batch prediction never aborts. A row's
prediction depends only on its votes, so a matrix is labelled once per
distinct vote pattern (majority vote, posterior, tie, forced and
degenerate masks included) and the results are copied back to the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import (
    LabelPrior,
    ModelParams,
    VoteRows,
    as_lf_matrix,
    class_prior_table,
    posterior_log_odds,
)
from .priors import majority_vote, vote_fraction

TIE_EPS = 1e-12

REASON_NONE = "none"
REASON_TIE = "tie"
REASON_FORCED = "forced"
REASON_DEGENERATE = "degenerate"


@dataclass
class Predictions:
    """Per-row predicted labels, positive-class scores, and abstain reasons."""

    labels: np.ndarray
    score_pos: np.ndarray
    abstain_reason: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def predict(votes, params: ModelParams, label_prior: LabelPrior | None = None) -> Predictions:
    """Most probable label per row under the model and label prior.

    Each row's class priors (and forced abstention) follow from its anchor,
    the majority vote of its own votes in the matrix being predicted.
    """
    return predict_grouped(VoteRows.grouped(votes), params, label_prior or LabelPrior())


def predict_grouped(
    grouped: tuple[VoteRows, np.ndarray],
    params: ModelParams,
    label_prior: LabelPrior,
) -> Predictions:
    """:func:`predict` over a matrix already grouped by
    :meth:`VoteRows.grouped`. The rows carry their majority-vote anchors,
    and the class priors come from ``label_prior.p``, so one grouping
    serves every model and ``p`` that label the same matrix."""
    rows, inverse = grouped
    if rows.d.shape[1] != params.m:
        raise DataError(f"matrix has {rows.d.shape[1]} columns but params have {params.m}")
    # Rows with the same votes get the same prediction: label each distinct
    # pattern once, then copy its prediction to its rows.
    table = class_prior_table(label_prior.p)
    odds, degenerate = posterior_log_odds(rows, table, params.accuracy)
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
        forced = rows.anchor == 0
        labels[forced] = 0
        reasons[forced] = REASON_FORCED

    return Predictions(labels[inverse], score_pos[inverse], reasons[inverse])


def majority_vote_predictions(votes) -> Predictions:
    """Majority vote dressed as predictions; scores are per-row vote fractions."""
    votes = as_lf_matrix(votes)
    labels = majority_vote(votes)
    reasons = np.where(labels == 0, REASON_TIE, REASON_NONE).astype("<U10")
    return Predictions(labels=labels, score_pos=vote_fraction(votes), abstain_reason=reasons)
