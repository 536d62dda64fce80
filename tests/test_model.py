"""Core generative-model probabilities: the log-joint kernel's per-vote
factors, class joints, marginals and posteriors, checked against the
linear-space row reference, and the log objective."""

import math

import numpy as np
import pytest

import kernel_reference as ref
from labelforge import DataError, Dataset, LabelPrior, ModelParams
from labelforge.model import (
    BetaPrior,
    VoteRows,
    as_lf_matrix,
    label_prior_pairs,
    log_objective,
    log_objectives,
    posterior_log_odds,
)
from labelforge.priors import build_uniform_priors, majority_vote


def objective(votes, params: ModelParams, accuracy_prior=None, pairs=None) -> float:
    return log_objective(
        VoteRows.of(votes, pairs), params.accuracy, params.coverage, accuracy_prior
    )


def kernel_log_marginals(votes, params: ModelParams, pair) -> np.ndarray:
    """Each row's log marginal under the class prior ``pair``: the kernel's
    log objective of that row alone, parameters used as given."""
    marginals = []
    for row in as_lf_matrix(votes):
        rows = VoteRows.of(row[None], [pair])
        marginals.append(log_objectives(rows, rows.log_prior, params.accuracy, params.coverage))
    return np.array(marginals, dtype=np.float64)


def kernel_ll(votes, params: ModelParams) -> np.ndarray:
    """The kernel's (n, 2) log P(row | label): each row's log marginal with
    all prior mass on label +1 (col 0) or -1 (col 1)."""
    return np.column_stack(
        [kernel_log_marginals(votes, params, pair) for pair in ((1.0, 0.0), (0.0, 1.0))]
    )


def kernel_posterior(row, params: ModelParams, pair) -> tuple[float, float]:
    rows = VoteRows.of([row], [pair])
    odds, degenerate = posterior_log_odds(rows, params.accuracy, params.coverage)
    assert not degenerate[0]
    return float(np.exp(-np.logaddexp(0.0, -odds[0]))), float(np.exp(-np.logaddexp(0.0, odds[0])))


class TestLfFactor:
    def test_abstention_branch(self):
        assert ref.factor(0, 1, 0.9, 0.4) == pytest.approx(0.6)
        assert np.exp(kernel_ll([[0]], ModelParams([0.9], [0.4]))[0]) == pytest.approx([0.6, 0.6])

    def test_agreement_branch(self):
        assert ref.factor(1, 1, 0.9, 0.4) == pytest.approx(0.36)
        assert np.exp(kernel_ll([[1]], ModelParams([0.9], [0.4]))[0, 0]) == pytest.approx(0.36)

    def test_disagreement_branch(self):
        assert ref.factor(-1, 1, 0.9, 0.4) == pytest.approx(0.04)
        assert np.exp(kernel_ll([[-1]], ModelParams([0.9], [0.4]))[0, 0]) == pytest.approx(0.04)

    def test_rejects_zero_label(self):
        # the kernel's labels are +1 and -1 only: a prior column for a third is refused
        with pytest.raises(DataError):
            VoteRows.of([[1]], np.full((1, 3), 1 / 3))

    def test_branches_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = rng.uniform(0, 1, 2)
            probs = np.exp(kernel_ll([[0], [1], [-1]], ModelParams([a], [b])))
            assert probs.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)
            np.testing.assert_allclose(
                probs[:, 0], [ref.factor(v, 1, a, b) for v in (0, 1, -1)], rtol=1e-12
            )


class TestClassJoint:
    def test_all_abstain_ignores_accuracy(self):
        params = ModelParams([0.9, 0.1], [0.4, 0.4])
        joint = 0.5 * np.exp(kernel_ll([[0, 0]], params)[0, 0])
        assert joint == pytest.approx(0.18)
        assert joint == pytest.approx(ref.class_joint([0, 0], 1, [0.9, 0.1], [0.4, 0.4], 0.5))

    def test_mixed_row(self):
        # coverage exactly 1: abstaining is impossible but this row votes everywhere
        params = ModelParams([0.9, 0.8], [1.0, 1.0])
        joint = 0.5 * np.exp(kernel_ll([[1, -1]], params)[0, 0])
        assert joint == pytest.approx(0.09)
        assert joint == pytest.approx(ref.class_joint([1, -1], 1, [0.9, 0.8], [1.0, 1.0], 0.5))

    def test_single_disagreement(self):
        params = ModelParams([0.7], [0.5])
        assert np.exp(kernel_ll([[1]], params)[0, 1]) == pytest.approx(0.15)
        assert ref.class_joint([1], -1, [0.7], [0.5], 1.0) == pytest.approx(0.15)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            log_objective(VoteRows.of([[1, 0]]), np.array([0.7]), np.array([0.5]))

    def test_monotone_in_accuracy(self):
        # agreement row increases with accuracy, disagreement row decreases
        lo = kernel_ll([[1], [-1]], ModelParams([0.6], [0.5]))[:, 0]
        hi = kernel_ll([[1], [-1]], ModelParams([0.8], [0.5]))[:, 0]
        assert hi[0] > lo[0]
        assert hi[1] < lo[1]


class TestMarginal:
    def test_all_abstain_drops_label(self):
        params = ModelParams([0.9, 0.2], [0.3, 0.7])
        expected = (1 - 0.3) * (1 - 0.7)
        value = math.exp(kernel_log_marginals([[0, 0]], params, (0.5, 0.5))[0])
        assert value == pytest.approx(expected)
        assert ref.marginal([0, 0], [0.9, 0.2], [0.3, 0.7], (0.5, 0.5)) == pytest.approx(expected)

    def test_single_vote(self):
        params = ModelParams([0.7], [0.5])
        assert math.exp(kernel_log_marginals([[1]], params, (0.5, 0.5))[0]) == pytest.approx(0.25)

    def test_degenerate_prior_equals_class_joint(self):
        params = ModelParams([0.7, 0.6], [0.5, 0.9])
        value = math.exp(kernel_log_marginals([[1, -1]], params, (1.0, 0.0))[0])
        assert value == pytest.approx(ref.class_joint([1, -1], 1, [0.7, 0.6], [0.5, 0.9]))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            row = rng.integers(-1, 2, m)
            acc = rng.uniform(0.1, 0.9, m)
            cov = rng.uniform(0.1, 0.9, m)
            perm = rng.permutation(m)
            a = kernel_log_marginals([row], ModelParams(acc, cov), (0.4, 0.6))[0]
            b = kernel_log_marginals(
                [row[perm]], ModelParams(acc[perm], cov[perm]), (0.4, 0.6)
            )[0]
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(math.log(ref.marginal(row, acc, cov, (0.4, 0.6))), rel=1e-12)


class TestPosterior:
    def test_no_evidence(self):
        params = ModelParams([0.9], [0.4])
        assert kernel_posterior([0], params, (0.5, 0.5)) == (0.5, 0.5)

    def test_single_vote(self):
        params = ModelParams([0.7], [0.5])
        p_pos, p_neg = kernel_posterior([1], params, (0.5, 0.5))
        assert p_pos == pytest.approx(0.7)
        assert p_neg == pytest.approx(0.3)
        assert (p_pos, p_neg) == pytest.approx(ref.posterior([1], [0.7], [0.5], (0.5, 0.5)))

    def test_degenerate_prior(self):
        params = ModelParams([0.7], [0.5])
        assert kernel_posterior([1], params, (1.0, 0.0)) == (1.0, 0.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            row = rng.integers(-1, 2, m)
            params = ModelParams(rng.uniform(0.05, 0.95, m), rng.uniform(0.05, 0.95, m))
            pair = rng.uniform(0.05, 0.5, 2)
            p_pos, p_neg = kernel_posterior(row, params, pair)
            assert 0.0 <= p_pos <= 1.0 and 0.0 <= p_neg <= 1.0
            assert p_pos + p_neg == pytest.approx(1.0, abs=1e-12)
            expected = ref.posterior(row, params.accuracy, params.coverage, pair)
            assert (p_pos, p_neg) == pytest.approx(expected, rel=1e-10)

    def test_impossible_row_is_degenerate(self):
        # full-coverage column cannot abstain: zero probability under both labels
        odds, degenerate = posterior_log_odds(
            VoteRows.of([[0]]), np.array([0.7]), np.array([1.0])
        )
        assert degenerate[0]
        assert odds[0] == 0.0
        assert ref.marginal([0], [0.7], [1.0], (0.5, 0.5)) == 0.0

    def test_scaling_priors_leaves_posterior_unchanged(self):
        params = ModelParams([0.7, 0.6], [0.5, 0.8])
        a = kernel_posterior([1, -1], params, (0.5, 0.5))
        b = kernel_posterior([1, -1], params, (0.25, 0.25))
        assert a == pytest.approx(b, rel=1e-12)


class TestLogObjective:
    def test_single_abstain_cell(self):
        params = ModelParams([0.5], [0.4])
        value = objective([[0]], params)
        assert value == pytest.approx(math.log(0.6), abs=1e-6)

    def test_uniform_prior_is_exactly_mle(self):
        rng = np.random.default_rng(3)
        votes = rng.integers(-1, 2, size=(12, 4))
        params = ModelParams(rng.uniform(0.2, 0.8, 4), rng.uniform(0.2, 0.8, 4))
        uniform = build_uniform_priors(4).accuracy_prior
        with_prior = objective(votes, params, uniform)
        without = objective(votes, params)
        assert with_prior == without

    def test_two_conflicting_rows(self):
        params = ModelParams([0.7], [1.0])
        value = objective([[1], [-1]], params)
        assert value == pytest.approx(2 * math.log(0.5), abs=1e-5)

    def test_label_prior_pairs_construction(self):
        pairs = label_prior_pairs(np.array([1, -1, 0]), 0.8)
        np.testing.assert_allclose(
            pairs, [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]
        )

    def test_informative_label_prior_enters_marginals(self):
        votes = as_lf_matrix([[1], [0]])
        params = ModelParams([0.7], [0.5])
        skew = objective(votes, params, pairs=label_prior_pairs(majority_vote(votes), 0.9))
        flat = objective(votes, params)
        # first row's majority vote is +1 and the LF agrees, so p=0.9 helps
        assert skew > flat

    def test_boundary_params_stay_finite(self):
        votes = as_lf_matrix([[1, 0], [-1, 1]])
        params = ModelParams([1.0, 0.0], [1.0, 0.0])
        assert np.isfinite(objective(votes, params))

    def test_log_marginals_match_scalar_marginal(self):
        rng = np.random.default_rng(9)
        votes = rng.integers(-1, 2, size=(20, 3))
        params = ModelParams(rng.uniform(0.2, 0.8, 3), rng.uniform(0.2, 0.8, 3))
        logm = kernel_log_marginals(votes, params, (0.6, 0.4))
        for i in range(20):
            assert logm[i] == pytest.approx(
                math.log(ref.marginal(votes[i], params.accuracy, params.coverage, (0.6, 0.4))),
                rel=1e-9,
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

    @pytest.mark.parametrize(
        "votes, pairs",
        [
            ([[1, 2]], None),  # a non-vote entry
            ([[1], [0]], [[0.5, 0.5]]),  # one prior pair for two rows
            ([[1], [0]], [[1.5, -0.5], [0.5, 0.5]]),  # a negative prior
            ([[1], [0]], [[np.nan, 0.5], [0.5, 0.5]]),
        ],
    )
    def test_vote_rows_check_votes_and_priors(self, votes, pairs):
        with pytest.raises(DataError):
            VoteRows.of(votes, pairs)

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
