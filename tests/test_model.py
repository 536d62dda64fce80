"""Core generative-model probabilities: per-vote factors, class joints,
marginals, posteriors, and the log objective."""

import math

import numpy as np
import pytest

from labelforge import (
    BetaPrior,
    DataError,
    Dataset,
    DegenerateMarginalError,
    LabelPrior,
    ModelParams,
    build_uniform_priors,
    class_joint,
    lf_factor,
    log_objective,
    marginal,
    posterior_class_probs,
)
from labelforge.model import as_lf_matrix, label_prior_pairs, log_marginals


class TestLfFactor:
    def test_abstention_branch(self):
        assert lf_factor(0, 1, 0.9, 0.4) == pytest.approx(0.6)

    def test_agreement_branch(self):
        assert lf_factor(1, 1, 0.9, 0.4) == pytest.approx(0.36)

    def test_disagreement_branch(self):
        assert lf_factor(-1, 1, 0.9, 0.4) == pytest.approx(0.04)

    def test_rejects_zero_label(self):
        with pytest.raises(DataError):
            lf_factor(1, 0, 0.9, 0.4)

    def test_branches_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = rng.uniform(0, 1, 2)
            total = lf_factor(0, 1, a, b) + lf_factor(1, 1, a, b) + lf_factor(-1, 1, a, b)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestClassJoint:
    def test_all_abstain_ignores_accuracy(self):
        params = ModelParams([0.9, 0.1], [0.4, 0.4])
        assert class_joint([0, 0], 1, params, 0.5) == pytest.approx(0.18)

    def test_mixed_row(self):
        params = ModelParams([0.9, 0.8], [1.0, 1.0])
        assert class_joint([1, -1], 1, params, 0.5) == pytest.approx(0.09)

    def test_single_disagreement(self):
        params = ModelParams([0.7], [0.5])
        assert class_joint([1], -1, params, 1.0) == pytest.approx(0.15)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            class_joint([1, 0], 1, ModelParams([0.7], [0.5]), 0.5)

    def test_monotone_in_accuracy(self):
        # agreement row increases with accuracy, disagreement row decreases
        lo = ModelParams([0.6], [0.5])
        hi = ModelParams([0.8], [0.5])
        assert class_joint([1], 1, hi, 0.5) > class_joint([1], 1, lo, 0.5)
        assert class_joint([-1], 1, hi, 0.5) < class_joint([-1], 1, lo, 0.5)


class TestMarginal:
    def test_all_abstain_drops_label(self):
        params = ModelParams([0.9, 0.2], [0.3, 0.7])
        expected = (1 - 0.3) * (1 - 0.7)
        assert marginal([0, 0], params, (0.5, 0.5)) == pytest.approx(expected)

    def test_single_vote(self):
        params = ModelParams([0.7], [0.5])
        assert marginal([1], params, (0.5, 0.5)) == pytest.approx(0.25)

    def test_degenerate_prior_equals_class_joint(self):
        params = ModelParams([0.7, 0.6], [0.5, 0.9])
        row = [1, -1]
        assert marginal(row, params, (1.0, 0.0)) == class_joint(row, 1, params, 1.0)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            row = rng.integers(-1, 2, m)
            acc = rng.uniform(0.1, 0.9, m)
            cov = rng.uniform(0.1, 0.9, m)
            perm = rng.permutation(m)
            a = marginal(row, ModelParams(acc, cov), (0.4, 0.6))
            b = marginal(row[perm], ModelParams(acc[perm], cov[perm]), (0.4, 0.6))
            assert a == pytest.approx(b, rel=1e-12)


class TestPosterior:
    def test_no_evidence(self):
        params = ModelParams([0.9], [0.4])
        assert posterior_class_probs([0], params, (0.5, 0.5)) == (0.5, 0.5)

    def test_single_vote(self):
        params = ModelParams([0.7], [0.5])
        p_pos, p_neg = posterior_class_probs([1], params, (0.5, 0.5))
        assert p_pos == pytest.approx(0.7)
        assert p_neg == pytest.approx(0.3)

    def test_degenerate_prior(self):
        params = ModelParams([0.7], [0.5])
        assert posterior_class_probs([1], params, (1.0, 0.0)) == (1.0, 0.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            row = rng.integers(-1, 2, m)
            params = ModelParams(rng.uniform(0.05, 0.95, m), rng.uniform(0.05, 0.95, m))
            pair = rng.uniform(0.05, 0.5, 2)
            p_pos, p_neg = posterior_class_probs(row, params, pair)
            assert 0.0 <= p_pos <= 1.0 and 0.0 <= p_neg <= 1.0
            assert p_pos + p_neg == pytest.approx(1.0, abs=1e-12)

    def test_impossible_row_is_degenerate(self):
        # full-coverage column cannot abstain: zero probability under both labels
        params = ModelParams([0.7], [1.0])
        with pytest.raises(DegenerateMarginalError):
            posterior_class_probs([0], params, (0.5, 0.5))

    def test_scaling_priors_leaves_posterior_unchanged(self):
        params = ModelParams([0.7, 0.6], [0.5, 0.8])
        a = posterior_class_probs([1, -1], params, (0.5, 0.5))
        b = posterior_class_probs([1, -1], params, (0.25, 0.25))
        assert a == pytest.approx(b, rel=1e-12)


class TestLogObjective:
    def test_single_abstain_cell(self):
        params = ModelParams([0.5], [0.4])
        value = log_objective([[0]], params, include_priors=False)
        assert value == pytest.approx(math.log(0.6), abs=1e-6)

    def test_uniform_prior_is_exactly_mle(self):
        rng = np.random.default_rng(3)
        votes = rng.integers(-1, 2, size=(12, 4))
        params = ModelParams(rng.uniform(0.2, 0.8, 4), rng.uniform(0.2, 0.8, 4))
        uniform = build_uniform_priors(4).accuracy_prior
        with_prior = log_objective(votes, params, uniform, None, include_priors=True)
        without = log_objective(votes, params, None, None, include_priors=False)
        assert with_prior == without

    def test_two_conflicting_rows(self):
        params = ModelParams([0.7], [1.0])
        value = log_objective([[1], [-1]], params, include_priors=False)
        assert value == pytest.approx(2 * math.log(0.5), abs=1e-5)

    def test_label_prior_pairs_construction(self):
        pairs = label_prior_pairs(np.array([1, -1, 0]), 0.8)
        np.testing.assert_allclose(
            pairs, [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
        )

    def test_informative_label_prior_enters_marginals(self):
        votes = as_lf_matrix([[1], [0]])
        params = ModelParams([0.7], [0.5])
        skew = log_objective(votes, params, None, LabelPrior(p=0.9), include_priors=False)
        flat = log_objective(votes, params, None, None, include_priors=False)
        # first row's majority vote is +1 and the LF agrees, so p=0.9 helps
        assert skew > flat

    def test_boundary_params_stay_finite(self):
        votes = as_lf_matrix([[1, 0], [-1, 1]])
        params = ModelParams([1.0, 0.0], [1.0, 0.0])
        assert np.isfinite(log_objective(votes, params, include_priors=False))

    def test_log_marginals_match_scalar_marginal(self):
        rng = np.random.default_rng(9)
        votes = rng.integers(-1, 2, size=(20, 3))
        params = ModelParams(rng.uniform(0.2, 0.8, 3), rng.uniform(0.2, 0.8, 3))
        pairs = np.tile([0.6, 0.4], (20, 1))
        logm = log_marginals(votes, params, pairs)
        for i in range(20):
            assert logm[i] == pytest.approx(
                math.log(marginal(votes[i], params, (0.6, 0.4))), rel=1e-9
            )


class TestValidation:
    def test_rejects_bad_votes(self):
        with pytest.raises(DataError):
            as_lf_matrix([[2, 0]])

    @pytest.mark.parametrize(
        "values",
        [
            [[0.5, 1.7]],  # non-integral: must not truncate to [[0, 1]]
            np.array([[257, 0]]),  # out of range: must not wrap to int8 1
            np.array([[255, 0]], dtype=np.uint8),  # wraps to int8 -1
            np.array([[np.nan, 0.0]]),
            np.array([[-2, 0]], dtype=np.int8),
            [["1", "0"]],
        ],
    )
    def test_rejects_non_vote_values_before_narrowing(self, values):
        with pytest.raises(DataError):
            as_lf_matrix(values)
        with pytest.raises(DataError):
            Dataset(values)

    @pytest.mark.parametrize("truth", [[1.0, -0.5], [1, 0], np.array([1, 255], dtype=np.uint8)])
    def test_rejects_non_label_truth(self, truth):
        with pytest.raises(DataError):
            Dataset([[1], [0]], truth)

    def test_votes_are_int8_and_int8_input_is_not_copied(self):
        votes = np.array([[1, 0], [-1, 1]], dtype=np.int8)
        assert as_lf_matrix(votes) is votes
        assert Dataset(votes).votes is votes
        assert as_lf_matrix([[1.0, -1.0]]).dtype == np.int8
        assert Dataset([[1, 0]], [1]).truth.dtype == np.int8

    def test_rejects_empty_matrix(self):
        with pytest.raises(DataError):
            as_lf_matrix(np.zeros((0, 3)))

    def test_model_params_range(self):
        with pytest.raises(DataError):
            ModelParams([1.2], [0.5])

    def test_beta_prior_positive(self):
        with pytest.raises(DataError):
            BetaPrior([0.0], [1.0])

    def test_label_prior_range(self):
        with pytest.raises(DataError):
            LabelPrior(p=0.4)
