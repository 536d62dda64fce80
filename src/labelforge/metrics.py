"""Classification metrics computed over non-abstaining predictions only.

Rows where the prediction abstains are excluded from the confusion matrix
and every derived metric; +1 is the positive class. Metrics whose
denominator vanishes are reported as None, never silently as zero.
AUC-ROC uses the rank statistic over positive-class scores of the scored
rows, with ties contributing one half; scores within a relative TIE_EPS of
their sorted neighbour count as tied, so the AUC does not move with the
rounding of mathematically equal posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .infer import TIE_EPS, Predictions
from .model import as_label_vector

METRIC_NAMES = ("f1", "accuracy", "precision", "recall", "auc_roc", "coverage")


@dataclass(frozen=True)
class MetricsReport:
    """Scores over the rows where the model voted. ``confusion`` is (tn, fp, fn, tp)."""

    f1: float | None
    accuracy: float | None
    precision: float | None
    recall: float | None
    auc_roc: float | None
    coverage: float
    confusion: tuple[int, int, int, int]
    n_scored: int

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def format_percent(value: float | None) -> str:
    """Two-decimal percent display, e.g. 0.925926 -> '92.59'; None -> 'NA'."""
    if value is None:
        return "NA"
    return f"{value * 100:.2f}"


def report_lines(report: MetricsReport) -> list[str]:
    """Flat key-value text record of a report (display rounding applied)."""
    lines = [f"{name}: {format_percent(getattr(report, name))}" for name in METRIC_NAMES]
    tn, fp, fn, tp = report.confusion
    lines.append(f"confusion_tn_fp_fn_tp: {tn},{fp},{fn},{tp}")
    lines.append(f"n_scored: {report.n_scored}")
    return lines


def auc_roc(scores, truth) -> float | None:
    """Rank-statistic AUC over positive-class scores; None if one class is absent."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = as_label_vector(truth, allow_abstain=False)
    if scores.shape != truth.shape:
        raise DataError(f"scores shape {scores.shape} != truth shape {truth.shape}")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == -1).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranked = scores[order]
    # Consecutive sorted scores within TIE_EPS (relative) are ties, so scores
    # that differ only by rounding share their group's average rank. Written
    # as "not within" so that a NaN starts a group of its own.
    tol = TIE_EPS * np.maximum(np.abs(ranked[1:]), np.abs(ranked[:-1]))
    new_group = np.concatenate(([True], ~(np.diff(ranked) <= tol)))
    group = np.cumsum(new_group) - 1
    size = np.bincount(group)
    # ranks start + 1 .. start + size average to start + (size + 1) / 2
    mean_rank = np.flatnonzero(new_group) + 0.5 * (size + 1)
    pos_in_group = np.bincount(group, weights=truth[order] == 1)
    rank_sum_pos = float(pos_in_group @ mean_rank)
    u_stat = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def score(predictions: Predictions, truth) -> MetricsReport:
    """Confusion counts and derived metrics over rows where the model voted."""
    truth = as_label_vector(truth, allow_abstain=False)
    labels = predictions.labels
    if labels.shape != truth.shape:
        raise DataError(f"predictions length {labels.shape[0]} != truth length {truth.shape[0]}")

    scored = labels != 0
    n_scored = int(scored.sum())
    pred_s = labels[scored]
    true_s = truth[scored]
    tp = int(((pred_s == 1) & (true_s == 1)).sum())
    fp = int(((pred_s == 1) & (true_s == -1)).sum())
    fn = int(((pred_s == -1) & (true_s == 1)).sum())
    tn = int(((pred_s == -1) & (true_s == -1)).sum())

    auc = auc_roc(predictions.score_pos[scored], true_s) if n_scored > 0 else None
    cov = float((labels != 0).sum() / labels.shape[0])
    return MetricsReport(
        **metrics_from_confusion(tn, fp, fn, tp),
        auc_roc=auc,
        coverage=cov,
        confusion=(tn, fp, fn, tp),
        n_scored=n_scored,
    )


def metrics_from_confusion(tn: int, fp: int, fn: int, tp: int) -> dict[str, float | None]:
    """F1/accuracy/precision/recall from raw confusion counts (no AUC)."""
    if min(tn, fp, fn, tp) < 0:
        raise DataError(f"confusion counts must be >= 0, got {(tn, fp, fn, tp)}")
    n = tn + fp + fn + tp
    accuracy = (tp + tn) / n if n > 0 else None
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None and recall is None:
        f1 = None
    elif (precision or 0.0) + (recall or 0.0) == 0.0:
        # both defined and zero -> undefined; one undefined, other zero -> 0
        f1 = None if precision is not None and recall is not None else 0.0
    else:
        p = precision or 0.0
        r = recall or 0.0
        f1 = 2.0 * p * r / (p + r)
    return {"f1": f1, "accuracy": accuracy, "precision": precision, "recall": recall}


def l2_distance(first, second) -> float:
    """Euclidean norm of the difference between two equal-length vectors."""
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class ConcordanceReport:
    """Accuracy split by agreement between predictions and majority vote."""

    accuracy_concordant: float | None
    accuracy_discordant: float | None
    mv_abstain_share_discordant: float | None
    n_concordant: int
    n_discordant: int


def mv_concordance(predictions: Predictions, majority, truth) -> ConcordanceReport:
    """Partition scored rows by prediction == majority vote (``majority``,
    one label per row) and score each side."""
    mv = as_label_vector(majority)
    truth = as_label_vector(truth, allow_abstain=False)
    labels = predictions.labels
    if not (labels.shape == mv.shape == truth.shape):
        raise DataError("predictions, mv votes, and truth must have equal lengths")
    scored = labels != 0
    concordant = scored & (labels == mv)
    discordant = scored & (labels != mv)

    def _acc(mask: np.ndarray) -> float | None:
        if not mask.any():
            return None
        return float((labels[mask] == truth[mask]).mean())

    share = None
    if discordant.any():
        share = float((mv[discordant] == 0).mean())
    return ConcordanceReport(
        accuracy_concordant=_acc(concordant),
        accuracy_discordant=_acc(discordant),
        mv_abstain_share_discordant=share,
        n_concordant=int(concordant.sum()),
        n_discordant=int(discordant.sum()),
    )
