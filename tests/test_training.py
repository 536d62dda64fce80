"""Training: coverage estimation, analytic gradients against finite
differences, determinism, ascent, and prior-strength behavior."""

import numpy as np
import pytest

from dataclasses import replace

from labelforge import (
    BetaPrior,
    TrainConfig,
    beta_from_mean,
    build_mv_priors,
    build_uniform_priors,
    build_user_priors,
    coverage_from_data,
    fit,
    generate_synthetic,
    predict,
    SyntheticSpec,
)
from labelforge.model import CLAMP_EPS, VoteRows, label_prior_pairs, log_objective
from labelforge.priors import majority_vote
from labelforge.train import grad_accuracy, grad_coverage


def finite_difference(objective, x0, step=1e-5):
    grad = np.zeros_like(x0)
    for j in range(x0.shape[0]):
        up = x0.copy()
        up[j] += step
        down = x0.copy()
        down[j] -= step
        grad[j] = (objective(up) - objective(down)) / (2 * step)
    return grad


class TestCoverage:
    def test_all_abstain_column(self):
        assert coverage_from_data([[0], [0]])[0] == 0.0

    def test_fractions(self):
        votes = [[1, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 1]]
        np.testing.assert_allclose(coverage_from_data(votes), [0.75, 0.0, 0.75])


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(5, 50))
            m = int(rng.integers(1, 8))
            votes = rng.integers(-1, 2, size=(n, m))
            acc = rng.uniform(0.15, 0.85, m)
            cov = rng.uniform(0.15, 0.85, m)
            prior = build_mv_priors(votes, float(rng.choice([10.0, 100.0])), p=0.7)
            rows = VoteRows.of(votes, label_prior_pairs(majority_vote(votes), 0.7))

            def objective(a):
                return log_objective(rows, a, cov, prior.accuracy_prior)

            analytic = grad_accuracy(rows, acc, cov, prior.accuracy_prior, 1.0)
            numeric = finite_difference(objective, acc)
            np.testing.assert_allclose(
                analytic, numeric, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(numeric).max())
            )

    def test_coverage_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(1, 6))
            votes = rng.integers(-1, 2, size=(n, m))
            acc = rng.uniform(0.2, 0.8, m)
            cov = rng.uniform(0.2, 0.8, m)
            prior = build_mv_priors(votes, 10.0)
            cov_prior = BetaPrior(*beta_from_mean(coverage_from_data(votes), 10.0))
            rows = VoteRows.of(votes, label_prior_pairs(majority_vote(votes), 0.5))

            def objective(c):
                return log_objective(rows, acc, c, prior.accuracy_prior, cov_prior)

            analytic = grad_coverage(rows, cov, cov_prior, 1.0)
            numeric = finite_difference(objective, cov)
            np.testing.assert_allclose(
                analytic, numeric, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(numeric).max())
            )

    def test_all_abstain_row_zero_gradient(self):
        rows = VoteRows.of([[0, 0]], [[0.5, 0.5]])
        uniform = build_uniform_priors(2).accuracy_prior
        grad = grad_accuracy(rows, np.array([0.7, 0.6]), np.array([0.5, 0.5]), uniform, 1.0)
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_strong_prior_dominates_sign(self):
        rows = VoteRows.of([[1, 1], [-1, -1], [1, -1]])
        prior = build_user_priors([0.7e6, 0.7e6], [0.3e6, 0.3e6]).accuracy_prior
        cov = np.array([0.9, 0.9])
        low = grad_accuracy(rows, np.array([0.5, 0.5]), cov, prior, 1.0)
        high = grad_accuracy(rows, np.array([0.9, 0.9]), cov, prior, 1.0)
        assert (low > 0).all()
        assert (high < 0).all()


class TestFit:
    def test_single_abstain_row(self):
        result = fit([[0]], None, None, TrainConfig(max_epochs=5, alpha_init=0.8))
        assert result.params.accuracy[0] == pytest.approx(0.8)
        assert result.params.coverage[0] == 0.0

    def test_deterministic(self):
        data = generate_synthetic(SyntheticSpec(m=3, n=120, accuracy=0.8, coverage=0.6, seed=2))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=12, batch_size=32, seed=4)
        prior = build_mv_priors(data.votes[:100], 10.0)
        a = fit(data.votes[:100], data.votes[100:], prior, cfg)
        b = fit(data.votes[:100], data.votes[100:], prior, cfg)
        np.testing.assert_array_equal(a.params.accuracy, b.params.accuracy)
        assert a.train_loss_history == b.train_loss_history
        assert a.val_loss_history == b.val_loss_history
        assert (a.stopped_epoch, a.best_epoch) == (b.stopped_epoch, b.best_epoch)

    def test_full_batch_ascent(self):
        data = generate_synthetic(SyntheticSpec(m=4, n=60, accuracy=0.75, coverage=0.6, seed=8))
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=10, alpha_init=0.6, seed=1)
        result = fit(data.votes, None, None, cfg)
        losses = result.train_loss_history
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))

    def test_duplicated_rows_fit_the_same_params(self):
        # The step is the learning rate over the row count, so doubling every
        # row doubles the gradient and halves the step. A step or prior weight
        # taken from the number of distinct patterns, which duplication leaves
        # alone, would move the fit.
        data = generate_synthetic(SyntheticSpec(m=4, n=300, accuracy=0.75, coverage=0.5, seed=3))
        votes = data.votes
        doubled = np.vstack([votes, votes])
        # learned coverages under no prior at all: a coverage prior would
        # weigh less against twice the data
        for prior, learn_beta in ((build_uniform_priors(4, p=0.8), False), (None, True)):
            cfg = TrainConfig(
                learning_rate=0.05, max_epochs=15, alpha_init=0.6, learn_beta=learn_beta
            )
            once = fit(votes, None, prior, cfg)
            twice = fit(doubled, None, prior, cfg)
            np.testing.assert_allclose(twice.params.accuracy, once.params.accuracy, rtol=1e-12)
            np.testing.assert_allclose(twice.params.coverage, once.params.coverage, rtol=1e-12)
            np.testing.assert_allclose(
                twice.train_loss_history, 2 * np.array(once.train_loss_history), rtol=1e-12
            )
            assert once.params.accuracy.min() < 0.99  # the fit is not pinned at the clamp

    def test_mle_equals_uniform_map_bitwise(self):
        rng = np.random.default_rng(13)
        for trial in range(3):
            votes = rng.integers(-1, 2, size=(25, 3))
            val = rng.integers(-1, 2, size=(6, 3))
            cfg = TrainConfig(learning_rate=0.05, max_epochs=6, seed=trial, alpha_init=0.8)
            map_res = fit(votes, val, build_uniform_priors(3), cfg)
            mle_res = fit(votes, val, None, cfg)
            np.testing.assert_array_equal(map_res.params.accuracy, mle_res.params.accuracy)
            assert map_res.train_loss_history == mle_res.train_loss_history
            assert map_res.val_loss_history == mle_res.val_loss_history

    def test_strong_prior_pins_to_means(self):
        data = generate_synthetic(
            SyntheticSpec(m=3, n=2000, accuracy=(0.9, 0.7, 0.6), coverage=0.5, seed=3)
        )
        means = np.array([0.35, 0.5, 0.65])
        prior = build_user_priors(1e6 * means, 1e6 * (1 - means))
        cfg = TrainConfig(learning_rate=5e-4, max_epochs=200, alpha_init=0.5, seed=0)
        result = fit(data.votes, None, prior, cfg)
        assert np.abs(result.params.accuracy - means).max() < 0.01

    def test_early_stopping_restores_best(self):
        data = generate_synthetic(SyntheticSpec(m=3, n=300, accuracy=0.8, coverage=0.5, seed=5))
        cfg = TrainConfig(learning_rate=0.1, max_epochs=50, patience=3, alpha_init=0.9, seed=2)
        result = fit(data.votes[:250], data.votes[250:], build_mv_priors(data.votes[:250], 10.0), cfg)
        assert result.stopped_epoch <= 50
        assert len(result.train_loss_history) == len(result.val_loss_history) == result.stopped_epoch
        assert 1 <= result.best_epoch <= result.stopped_epoch
        best = min(result.val_loss_history)
        assert result.val_loss_history[result.best_epoch - 1] == best

    def test_zero_epoch_budget(self):
        result = fit([[1, 0]], None, None, TrainConfig(max_epochs=0, alpha_init=0.7))
        assert result.stopped_epoch == 0
        assert result.train_loss_history == []
        assert result.params.accuracy[0] == pytest.approx(0.7)

    def test_zero_row_validation_means_no_early_stopping(self):
        votes = np.array([[1, 0], [0, -1], [1, -1]])
        empty = np.zeros((0, 2), dtype=np.int64)
        a = fit(votes, empty, None, TrainConfig(max_epochs=4, seed=1))
        b = fit(votes, None, None, TrainConfig(max_epochs=4, seed=1))
        assert a.stopped_epoch == 4
        assert a.val_loss_history == []
        np.testing.assert_array_equal(a.params.accuracy, b.params.accuracy)


class TestLearnBeta:
    def test_learned_coverage_near_empirical(self):
        data = generate_synthetic(
            SyntheticSpec(m=3, n=1500, accuracy=(0.85, 0.75, 0.65), coverage=(0.7, 0.4, 0.2), seed=6)
        )
        prior = build_mv_priors(data.votes, 10.0)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=80, alpha_init=0.9, seed=1, learn_beta=True)
        result = fit(data.votes, None, prior, cfg)
        empirical = coverage_from_data(data.votes)
        assert np.linalg.norm(result.params.coverage - empirical) < 0.05

    def test_strong_coverage_prior_pins(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=800, accuracy=0.8, coverage=(0.6, 0.3), seed=7))
        prior = build_mv_priors(data.votes, 1e6)
        cfg = TrainConfig(learning_rate=2e-4, max_epochs=150, alpha_init=0.5, seed=1, learn_beta=True)
        result = fit(data.votes, None, prior, cfg)
        empirical = coverage_from_data(data.votes)
        assert np.abs(result.params.coverage - empirical).max() < 0.01

    def test_flag_steps_under_empirical_coverage_prior(self):
        # one full-batch epoch moves coverage by one gradient step under the
        # beta prior whose means are the empirical coverages
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        prior = build_mv_priors(data.votes, 10.0)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=1, seed=3)
        result = fit(data.votes, None, prior, replace(cfg, learn_beta=True))
        empirical = coverage_from_data(data.votes)
        cov_prior = BetaPrior(*beta_from_mean(empirical, 10.0))
        step = grad_coverage(VoteRows.of(data.votes), empirical, cov_prior, 1.0)
        expected = np.clip(empirical + 0.05 / 100 * step, CLAMP_EPS, 1.0 - CLAMP_EPS)
        np.testing.assert_array_equal(result.params.coverage, expected)

    def test_fixed_coverage_path_untouched(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=5, seed=3)
        result = fit(data.votes, None, None, cfg)
        np.testing.assert_array_equal(result.params.coverage, coverage_from_data(data.votes))


class TestPredictAfterFit:
    def test_fit_predict_roundtrip_smoke(self):
        data = generate_synthetic(
            SyntheticSpec(m=4, n=500, accuracy=(0.9, 0.8, 0.7, 0.6), coverage=0.6, seed=10)
        )
        prior = build_mv_priors(data.votes, 10.0)
        result = fit(data.votes, None, prior, TrainConfig(learning_rate=0.1, max_epochs=40, alpha_init=0.9, seed=5))
        preds = predict(data.votes, result.params, prior.label_prior)
        agree = (preds.labels[preds.labels != 0] == data.truth[preds.labels != 0]).mean()
        assert agree > 0.8
