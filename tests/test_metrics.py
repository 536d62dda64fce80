"""Metrics: abstention-excluded confusion counts, AUC rank statistic,
distance measures, and majority-vote concordance."""

import numpy as np
import pytest

from labelforge import (
    DataError,
    l2_distance,
    mv_concordance,
    score,
)
from labelforge.infer import Predictions
from labelforge.metrics import auc_roc, format_percent, metrics_from_confusion, report_lines


def make_predictions(labels, scores=None):
    labels = np.asarray(labels, dtype=np.int64)
    if scores is None:
        scores = np.where(labels == 1, 0.9, np.where(labels == -1, 0.1, 0.5))
    return Predictions(
        labels=labels,
        score_pos=np.asarray(scores, dtype=np.float64),
        abstain_reason=np.where(labels == 0, "tie", "none").astype("<U10"),
    )


class TestScore:
    def test_perfect_predictions(self):
        truth = np.array([1, -1, 1, -1])
        report = score(make_predictions(truth), truth)
        assert report.f1 == report.accuracy == report.precision == report.recall == 1.0
        assert report.auc_roc == 1.0
        assert report.coverage == 1.0

    def test_published_confusion_values(self):
        out = metrics_from_confusion(150, 1, 19, 125)
        assert format_percent(out["f1"]) == "92.59"
        assert format_percent(out["accuracy"]) == "93.22"
        assert format_percent(out["precision"]) == "99.21"
        assert format_percent(out["recall"]) == "86.81"

    def test_confusion_counts_checked(self):
        assert metrics_from_confusion(0, 0, 0, 0) == dict.fromkeys(
            ("f1", "accuracy", "precision", "recall")
        )
        with pytest.raises(DataError):
            metrics_from_confusion(1, -1, 0, 0)

    def test_all_abstain(self):
        truth = np.array([1, -1])
        report = score(make_predictions([0, 0]), truth)
        assert report.n_scored == 0
        assert report.f1 is None and report.accuracy is None
        assert report.precision is None and report.recall is None
        assert report.auc_roc is None
        assert report.coverage == 0.0

    def test_confusion_layout(self):
        preds = make_predictions([1, 1, -1, -1, 0])
        truth = np.array([1, -1, 1, -1, 1])
        report = score(preds, truth)
        assert report.confusion == (1, 1, 1, 1)  # (tn, fp, fn, tp)
        assert report.n_scored == 4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        labels = rng.choice([-1, 0, 1], size=50)
        truth = rng.choice([-1, 1], size=50)
        scores = rng.random(50)
        perm = rng.permutation(50)
        a = score(make_predictions(labels, scores), truth)
        b = score(make_predictions(labels[perm], scores[perm]), truth[perm])
        assert a == b

    def test_removing_abstained_row_changes_nothing(self):
        labels = np.array([1, 0, -1, 1])
        scores = np.array([0.9, 0.5, 0.2, 0.8])
        truth = np.array([1, -1, -1, -1])
        keep = labels != 0
        a = score(make_predictions(labels, scores), truth)
        b = score(make_predictions(labels[keep], scores[keep]), truth[keep])
        assert a.confusion == b.confusion
        assert a.f1 == b.f1 and a.auc_roc == b.auc_roc
        assert a.coverage != b.coverage  # only coverage sees abstentions

    def test_class_flip_duality(self):
        rng = np.random.default_rng(7)
        labels = rng.choice([-1, 1], size=60)
        truth = rng.choice([-1, 1], size=60)
        scores = rng.random(60)
        a = score(make_predictions(labels, scores), truth)
        b = score(make_predictions(-labels, 1 - scores), -truth)
        tn, fp, fn, tp = a.confusion
        assert b.confusion == (tp, fn, fp, tn)
        assert b.accuracy == pytest.approx(a.accuracy)
        assert b.auc_roc == pytest.approx(a.auc_roc)

    def test_f1_undefined_cases(self):
        # both precision and recall zero -> undefined
        report = score(make_predictions([1, -1]), np.array([-1, 1]))
        assert report.precision == 0.0 and report.recall == 0.0
        assert report.f1 is None
        # no positive predictions and no positive truths -> both undefined
        report = score(make_predictions([-1, -1]), np.array([-1, -1]))
        assert report.precision is None and report.recall is None
        assert report.f1 is None
        # no positive truths but a wrong positive prediction: recall undefined,
        # precision zero -> f1 defined as 0
        report = score(make_predictions([1, -1]), np.array([-1, -1]))
        assert report.precision == 0.0 and report.recall is None
        assert report.f1 == 0.0


class TestAuc:
    def test_separated(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0

    def test_constant_scores(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1]) == 0.5

    def test_matches_pairwise_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            truth = rng.choice([-1, 1], size=n)
            if len(set(truth.tolist())) < 2:
                truth[0] = -truth[0]
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            pos = scores[truth == 1]
            neg = scores[truth == -1]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            expected = wins / (len(pos) * len(neg))
            assert auc_roc(scores, truth) == pytest.approx(expected)

    def test_single_class_undefined(self):
        assert auc_roc([0.4, 0.6], [1, 1]) is None

    def test_rounding_differences_are_ties(self):
        # posteriors that are equal but for rounding: a few ulps apart
        base = np.array([0.3, 0.3, 0.7, 0.7, 0.7, 0.1])
        truth = np.array([1, -1, -1, 1, 1, -1])
        jittered = base.copy()
        for i, ulps in ((1, 3), (2, -2), (4, 5)):
            jittered[i] = base[i] + ulps * np.spacing(base[i])
        assert not np.array_equal(jittered, base)
        assert auc_roc(jittered, truth) == auc_roc(base, truth)
        assert auc_roc(base, truth) == pytest.approx(6.5 / 9)

    def test_distinct_scores_are_not_ties(self):
        truth = np.array([1, -1])
        assert auc_roc([0.5, 0.5], truth) == 0.5
        assert auc_roc([0.5 + 1e-9, 0.5], truth) == 1.0
        assert auc_roc([0.5 - 1e-9, 0.5], truth) == 0.0


class TestL2Distance:
    def test_identical(self):
        assert l2_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_unit_corners(self):
        assert l2_distance([1, 0], [0, 1]) == pytest.approx(np.sqrt(2))

    def test_hand_value(self):
        assert l2_distance([0.9, 0.6], [0.8, 0.8]) == pytest.approx(np.sqrt(0.05))


class TestConcordance:
    def test_identical_predictions(self):
        labels = np.array([1, -1, 1])
        report = mv_concordance(make_predictions(labels), labels, np.array([1, 1, -1]))
        assert report.n_discordant == 0
        assert report.accuracy_discordant is None
        assert report.mv_abstain_share_discordant is None

    def test_votes_where_mv_abstains(self):
        labels = np.array([1, -1])
        mv = np.array([0, 0])
        truth = np.array([1, -1])
        report = mv_concordance(make_predictions(labels), mv, truth)
        assert report.accuracy_discordant == 1.0
        assert report.mv_abstain_share_discordant == 1.0

    def test_hand_built_partition(self):
        labels = np.array([1, 1, -1, -1, 1, 0])
        mv = np.array([1, -1, -1, 0, 0, 1])
        truth = np.array([1, 1, 1, -1, -1, 1])
        report = mv_concordance(make_predictions(labels), mv, truth)
        # concordant rows: 0 (correct), 2 (wrong) -> accuracy 1/2
        assert report.n_concordant == 2
        assert report.accuracy_concordant == pytest.approx(0.5)
        # discordant rows: 1 (correct), 3 (correct), 4 (wrong) -> accuracy 2/3
        assert report.n_discordant == 3
        assert report.accuracy_discordant == pytest.approx(2 / 3)
        # MV abstained on rows 3 and 4 of the discordant set
        assert report.mv_abstain_share_discordant == pytest.approx(2 / 3)


class TestFormatting:
    def test_percent(self):
        assert format_percent(0.925925925) == "92.59"
        assert format_percent(None) == "NA"

    def test_report_lines(self):
        truth = np.array([1, -1])
        lines = report_lines(score(make_predictions([1, -1]), truth))
        assert "f1: 100.00" in lines
        assert "n_scored: 2" in lines
