"""Prediction semantics: tie-breaking, forced abstention, degenerate rows."""

import numpy as np
import pytest

from labelforge import (
    DataError,
    LabelPrior,
    ModelParams,
    majority_vote,
    majority_vote_predictions,
    predict,
    score,
)
from labelforge.infer import (
    REASON_DEGENERATE,
    REASON_FORCED,
    REASON_NONE,
    REASON_TIE,
    predict_grouped,
)
from labelforge.model import MAX_PATTERN_LFS, VoteRows

import kernel_reference as ref


class TestPredict:
    def test_all_abstain_row_is_tie(self):
        params = ModelParams([0.9], [0.4])
        preds = predict([[0]], params, LabelPrior())
        assert preds.labels[0] == 0
        assert preds.abstain_reason[0] == REASON_TIE
        assert preds.score_pos[0] == pytest.approx(0.5)

    def test_single_positive_vote(self):
        params = ModelParams([0.7], [0.5])
        preds = predict([[1]], params, LabelPrior())
        assert preds.labels[0] == 1
        assert preds.score_pos[0] == pytest.approx(0.7)
        assert preds.abstain_reason[0] == REASON_NONE

    def test_forced_abstention_overrides_model(self):
        # MV ties on (+1, -1); a lopsided accuracy pair would break the tie
        params = ModelParams([0.95, 0.55], [0.8, 0.8])
        forced = predict([[1, -1]], params, LabelPrior(force_abstain=True))
        assert forced.labels[0] == 0
        assert forced.abstain_reason[0] == REASON_FORCED
        free = predict([[1, -1]], params, LabelPrior(force_abstain=False))
        assert free.labels[0] == 1

    def test_degenerate_row_abstains(self):
        # two always-right LFs that disagree: probability zero under both labels
        params = ModelParams([1.0, 1.0], [0.5, 0.5])
        preds = predict([[1, -1]], params, LabelPrior())
        assert preds.labels[0] == 0
        assert preds.abstain_reason[0] == REASON_DEGENERATE
        assert preds.score_pos[0] == pytest.approx(0.5)

    def test_strong_p_recapitulates_majority_vote(self):
        rng = np.random.default_rng(42)
        strong = LabelPrior(p=1 - 1e-9, force_abstain=True)
        for _ in range(20):
            n, m = int(rng.integers(3, 30)), int(rng.integers(1, 7))
            votes = rng.integers(-1, 2, size=(n, m))
            votes[0] = 0  # guarantee an all-abstain row
            params = ModelParams(rng.uniform(0.1, 0.9, m), rng.uniform(0.1, 0.9, m))
            preds = predict(votes, params, strong)
            np.testing.assert_array_equal(preds.labels, majority_vote(votes))

    def test_symmetric_prior_ignores_anchor_votes(self):
        rng = np.random.default_rng(3)
        votes = rng.integers(-1, 2, size=(20, 3))
        params = ModelParams(rng.uniform(0.2, 0.8, 3), rng.uniform(0.2, 0.8, 3))
        a = predict(votes, params, LabelPrior(p=0.5, force_abstain=False))
        b = predict(votes, params, None)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.score_pos, b.score_pos)

    def test_tie_symmetry_under_global_negation(self):
        rng = np.random.default_rng(17)
        votes = rng.integers(-1, 2, size=(40, 4))
        params = ModelParams(rng.uniform(0.2, 0.8, 4), rng.uniform(0.2, 0.8, 4))
        plain = predict(votes, params, LabelPrior())
        flipped = predict(-votes, params, LabelPrior())
        np.testing.assert_array_equal(flipped.labels, -plain.labels)

    def test_label_zero_iff_reason(self):
        rng = np.random.default_rng(23)
        votes = rng.integers(-1, 2, size=(60, 3))
        params = ModelParams(rng.uniform(0.2, 0.8, 3), rng.uniform(0.2, 0.8, 3))
        preds = predict(votes, params, LabelPrior(p=0.8, force_abstain=True))
        np.testing.assert_array_equal(preds.labels == 0, preds.abstain_reason != REASON_NONE)
        assert ((preds.score_pos >= 0.0) & (preds.score_pos <= 1.0)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            predict([[1, 0]], ModelParams([0.7], [0.5]), None)

    @pytest.mark.parametrize("m", [6, MAX_PATTERN_LFS + 2])
    def test_one_grouping_serves_every_label_prior(self, m):
        # grid search groups its validation matrix once and labels it per cell
        rng = np.random.default_rng(m)
        votes = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(300, m))
        params = ModelParams(rng.uniform(0.55, 0.95, m), rng.uniform(0.2, 0.9, m))
        grouped = VoteRows.grouped(votes)
        for p in (0.5, 0.8, 1.0):
            for force in (False, True):
                prior = LabelPrior(p=p, force_abstain=force)
                want, got = predict(votes, params, prior), predict_grouped(grouped, params, prior)
                np.testing.assert_array_equal(got.labels, want.labels)
                np.testing.assert_array_equal(got.score_pos, want.score_pos)
                np.testing.assert_array_equal(got.abstain_reason, want.abstain_reason)


class TestWideAndBoundary:
    def test_wide_matrix_does_not_underflow(self):
        # m=1200 at coverage 0.5: every row's joint is far below the smallest
        # float64, so a linear-space product would call all rows degenerate
        rng = np.random.default_rng(12)
        n, m = 200, 1200
        acc = rng.uniform(0.55, 0.9, m)
        cov = np.full(m, 0.5)
        truth = rng.choice([-1, 1], size=n)
        voted = rng.random((n, m)) < cov
        right = rng.random((n, m)) < acc
        votes = (voted * np.where(right, truth[:, None], -truth[:, None])).astype(np.int8)
        params = ModelParams(acc, cov)
        preds = predict(votes, params, LabelPrior(p=0.7))
        assert not (preds.abstain_reason == REASON_DEGENERATE).any()

        # log-domain reference: sum of log factors per row and class
        log_prior = np.log(ref.pairs(majority_vote(votes), 0.7))
        joints = []
        for label in (1, -1):
            factors = np.where(
                votes == 0, 1 - cov, np.where(votes == label, acc * cov, (1 - acc) * cov)
            )
            joints.append(np.log(factors).sum(axis=1))
        gap = joints[0] + log_prior[:, 0] - joints[1] - log_prior[:, 1]
        assert np.abs(gap).min() > 1.0
        np.testing.assert_array_equal(preds.labels, np.sign(gap))

    def test_certain_accuracy_with_disagreeing_vote(self):
        # accuracy exactly 1: a vote against a label rules that label out
        params = ModelParams([1.0, 0.6], [0.5, 0.5])
        preds = predict([[1, -1], [-1, 1], [1, 0]], params, LabelPrior())
        np.testing.assert_array_equal(preds.score_pos, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(preds.labels, [1, -1, 1])
        assert (preds.abstain_reason == REASON_NONE).all()

    def test_full_coverage_lf_that_abstains_is_labelled(self):
        # empirical coverage 1 (or 0), as fit stores it for an LF that always
        # (or never) voted. Coverage is the same under both labels, so a row
        # that contradicts it is labelled by its votes like any other.
        votes = [[0, 1], [1, 0], [0, 0]]
        for coverage in ([1.0, 0.4], [0.0, 0.0]):
            preds = predict(votes, ModelParams([0.8, 0.7], coverage), LabelPrior())
            np.testing.assert_array_equal(preds.labels, [1, 1, 0])
            np.testing.assert_array_equal(
                preds.abstain_reason, [REASON_NONE, REASON_NONE, REASON_TIE]
            )
            np.testing.assert_allclose(preds.score_pos, [0.7, 0.8, 0.5], rtol=1e-15)

    def test_certain_prior_follows_majority_vote(self):
        # p = 1 gives the class against a row's MV label prior probability 0,
        # even where the LFs' accuracies alone would pick that class
        params = ModelParams([0.99, 0.55, 0.55], [0.5, 0.5, 0.5])
        votes = [[1, -1, -1], [-1, 1, 1], [0, 0, -1], [1, -1, 0]]
        preds = predict(votes, params, LabelPrior(p=1.0))
        np.testing.assert_array_equal(preds.labels, [-1, 1, -1, 1])
        np.testing.assert_array_equal(preds.score_pos[:3], [0.0, 1.0, 0.0])
        # the MV tie keeps the uninformative prior: the model decides
        assert 0.5 < preds.score_pos[3] < 1.0


class TestCoverage:
    """The share of rows labelled, as score reports it (truth does not enter)."""

    def test_full(self):
        params = ModelParams([0.9], [1.0])
        preds = predict([[1], [-1]], params, LabelPrior())
        assert score(preds, [1, 1]).coverage == 1.0

    def test_zero(self):
        params = ModelParams([0.9], [0.4])
        preds = predict([[0], [0]], params, LabelPrior())
        assert score(preds, [1, -1]).coverage == 0.0

    def test_forced_matches_mv_coverage(self):
        rng = np.random.default_rng(31)
        votes = rng.integers(-1, 2, size=(50, 3))
        params = ModelParams(rng.uniform(0.3, 0.9, 3), rng.uniform(0.3, 0.9, 3))
        preds = predict(votes, params, LabelPrior(p=1 - 1e-9, force_abstain=True))
        mv_cov = float((majority_vote(votes) != 0).mean())
        assert score(preds, np.ones(50, dtype=np.int8)).coverage == pytest.approx(mv_cov)


class TestMajorityVotePredictions:
    def test_labels_and_scores(self):
        preds = majority_vote_predictions([[1, 1, -1], [0, 0, 0], [-1, -1, 1]])
        np.testing.assert_array_equal(preds.labels, [1, 0, -1])
        np.testing.assert_allclose(preds.score_pos, [2 / 3, 0.5, 1 / 3])
        assert preds.abstain_reason[1] == REASON_TIE
