"""Training: coverage estimation, analytic gradients against finite
differences, determinism, ascent, and prior-strength behavior."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (
    DataError,
    LabelPrior,
    NumericalError,
    TrainConfig,
    build_mv_priors,
    build_user_priors,
    fit,
    generate_synthetic,
    predict,
    SyntheticSpec,
)
from labelforge.model import CLAMP_EPS, BetaPrior, VoteRows, label_prior_pairs, log_objective
from labelforge.priors import beta_from_mean, build_uniform_priors, majority_vote
import labelforge.train
from labelforge.train import fit_cells, grad_accuracy, grad_coverage

import kernel_reference as ref


def finite_difference(objective, x0, step=1e-5):
    grad = np.zeros_like(x0)
    for j in range(x0.shape[0]):
        up = x0.copy()
        up[j] += step
        down = x0.copy()
        down[j] -= step
        grad[j] = (objective(up) - objective(down)) / (2 * step)
    return grad


def fixed_coverage(votes) -> np.ndarray:
    """The coverage a fit fixes for a matrix (no epoch run)."""
    return fit(votes, config=TrainConfig(max_epochs=0)).params.coverage


class TestCoverage:
    def test_all_abstain_column(self):
        assert fixed_coverage([[0], [0]])[0] == 0.0

    def test_fractions(self):
        votes = [[1, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 1]]
        np.testing.assert_allclose(fixed_coverage(votes), [0.75, 0.0, 0.75])


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

            analytic = grad_accuracy(
                rows, ref.prior_odds(rows), acc, cov, prior.accuracy_prior, 1.0
            )
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
            cov_prior = BetaPrior(*beta_from_mean(ref.coverage(votes), 10.0))
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
        acc, cov = np.array([0.7, 0.6]), np.array([0.5, 0.5])
        grad = grad_accuracy(rows, ref.prior_odds(rows), acc, cov, uniform, 1.0)
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_strong_prior_dominates_sign(self):
        rows = VoteRows.of([[1, 1], [-1, -1], [1, -1]])
        prior = build_user_priors([0.7e6, 0.7e6], [0.3e6, 0.3e6]).accuracy_prior
        cov = np.array([0.9, 0.9])
        odds = ref.prior_odds(rows)
        low = grad_accuracy(rows, odds, np.array([0.5, 0.5]), cov, prior, 1.0)
        high = grad_accuracy(rows, odds, np.array([0.9, 0.9]), cov, prior, 1.0)
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


    @pytest.mark.parametrize("batch_size", [None, 7])
    @pytest.mark.parametrize("p", [0.8, 1.0])
    def test_one_epoch_follows_the_gradient_oracle(self, batch_size, p):
        # the label prior reaches the step and both losses as each row's
        # class prior pair, as in the gradient and objective oracles
        data = generate_synthetic(SyntheticSpec(m=3, n=60, accuracy=0.8, coverage=0.6, seed=4))
        votes, val = data.votes[:45], data.votes[45:]
        prior = build_mv_priors(votes, 10.0, p)
        cfg = TrainConfig(learning_rate=0.2, max_epochs=1, batch_size=batch_size, alpha_init=0.7,
                          seed=3)
        result = fit(votes, val, prior, cfg)

        rows = VoteRows.of(votes, label_prior_pairs(majority_vote(votes), p))
        acc, cov = np.full(3, 0.7), ref.coverage(votes)
        if batch_size is None:
            batches = [rows]
        else:
            order = np.random.default_rng(np.random.SeedSequence([3, 1])).permutation(45)
            batches = [rows.take(order[i : i + batch_size]) for i in range(0, 45, batch_size)]
        for batch in batches:
            grad = grad_accuracy(
                batch, ref.prior_odds(batch), acc, cov, prior.accuracy_prior, batch.n / 45
            )
            acc = np.clip(acc + 0.2 / batch.n * grad, CLAMP_EPS, 1.0 - CLAMP_EPS)
        np.testing.assert_allclose(result.params.accuracy, acc, rtol=1e-12)
        val_rows = VoteRows.of(val, label_prior_pairs(majority_vote(val), p))
        for history, scored in (
            (result.train_loss_history, rows),
            (result.val_loss_history, val_rows),
        ):
            expected = -log_objective(scored, acc, cov, prior.accuracy_prior)
            np.testing.assert_allclose(history, [expected], rtol=1e-12)


class TestFullBatchEpoch:
    """A full-batch epoch hands the train objective's d @ h to the next
    gradient. The fit must equal a loop that asks ``grad_accuracy`` for every
    gradient afresh, over the same grouped rows with the same (1, m) shapes,
    bit for bit; and each epoch's recorded train loss must be the objective
    at that epoch's parameters."""

    @pytest.mark.parametrize("m", [10, 50])
    @pytest.mark.parametrize("p", [0.7, 1.0])
    def test_carried_products_equal_fresh_gradients(self, m, p):
        n, epochs, lr = 400, 8, 0.3
        data = generate_synthetic(
            SyntheticSpec(m=m, n=n, accuracy=0.75, coverage=0.4, seed=m)
        )
        votes = data.votes
        prior = build_mv_priors(votes, 10.0, p)
        result = fit(votes, None, prior, TrainConfig(learning_rate=lr, max_epochs=epochs,
                                                     alpha_init=0.7))

        anchors = majority_vote(votes)
        rows, pattern_anchors, _ = VoteRows.grouped(votes, 0.5, anchors)
        assert (rows.n < n) == (m == 10)  # patterns, or one row per input row
        with np.errstate(divide="ignore"):
            log_prior = np.log(np.stack([[1.0 - p], [0.5], [p]]))
        odds = np.take(0.5 * (log_prior - log_prior[::-1]), pattern_anchors + 1, axis=0)
        acc_prior = BetaPrior(prior.accuracy_prior.u[None], prior.accuracy_prior.v[None])
        acc = np.full((1, m), 0.7)
        cov = np.clip(rows.count / n, CLAMP_EPS, 1.0 - CLAMP_EPS)[None]
        plain = VoteRows.of(votes, label_prior_pairs(anchors, p))
        for epoch in range(epochs):
            grad = grad_accuracy(rows, odds, acc, cov, acc_prior, 1.0)
            acc = np.clip(acc + lr / rows.total * grad, CLAMP_EPS, 1.0 - CLAMP_EPS)
            expected = -log_objective(plain, acc[0], cov[0], prior.accuracy_prior)
            np.testing.assert_allclose(result.train_loss_history[epoch], expected, rtol=1e-12)
        np.testing.assert_array_equal(result.params.accuracy, acc[0])
        assert 0.01 < acc.min() and acc.max() < 0.99  # the fit is not pinned at the clamp

    def test_fit_never_holds_a_second_vote_matrix(self):
        # the fit converts the votes to float64 once; a |d| of the same size
        # (1.0 more) or a (rows, 2) likelihood array per LF would show here
        rng = np.random.default_rng(3)
        votes = rng.integers(-1, 2, size=(1500, 400)).astype(np.int8)
        float_bytes = votes.size * 8
        config = TrainConfig(learning_rate=0.05, max_epochs=3, alpha_init=0.7)
        tracemalloc.start()
        try:
            fit(votes, None, build_mv_priors(votes, 10.0, 0.7), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * float_bytes, peak / float_bytes


class TestLearnBeta:
    def test_learned_coverage_near_empirical(self):
        data = generate_synthetic(
            SyntheticSpec(m=3, n=1500, accuracy=(0.85, 0.75, 0.65), coverage=(0.7, 0.4, 0.2), seed=6)
        )
        prior = build_mv_priors(data.votes, 10.0)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=80, alpha_init=0.9, seed=1, learn_beta=True)
        result = fit(data.votes, None, prior, cfg)
        empirical = ref.coverage(data.votes)
        assert np.linalg.norm(result.params.coverage - empirical) < 0.05

    def test_strong_coverage_prior_pins(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=800, accuracy=0.8, coverage=(0.6, 0.3), seed=7))
        prior = build_mv_priors(data.votes, 1e6)
        cfg = TrainConfig(learning_rate=2e-4, max_epochs=150, alpha_init=0.5, seed=1, learn_beta=True)
        result = fit(data.votes, None, prior, cfg)
        empirical = ref.coverage(data.votes)
        assert np.abs(result.params.coverage - empirical).max() < 0.01

    def test_flag_steps_under_empirical_coverage_prior(self):
        # one full-batch epoch moves coverage by one gradient step under the
        # beta prior whose means are the empirical coverages
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        prior = build_mv_priors(data.votes, 10.0)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=1, seed=3)
        result = fit(data.votes, None, prior, replace(cfg, learn_beta=True))
        empirical = ref.coverage(data.votes)
        cov_prior = BetaPrior(*beta_from_mean(empirical, 10.0))
        step = grad_coverage(VoteRows.of(data.votes), empirical, cov_prior, 1.0)
        expected = np.clip(empirical + 0.05 / 100 * step, CLAMP_EPS, 1.0 - CLAMP_EPS)
        np.testing.assert_array_equal(result.params.coverage, expected)

    def test_fixed_coverage_path_untouched(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=5, seed=3)
        result = fit(data.votes, None, None, cfg)
        np.testing.assert_array_equal(result.params.coverage, ref.coverage(data.votes))


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


# One grid cell: learning rate, alpha_init, accuracy-prior strength (None for
# the plain likelihood) and label-prior p.
CELLS = st.lists(
    st.tuples(
        st.floats(0.001, 0.5),
        st.sampled_from([0.55, 0.8, 1.0]),
        st.sampled_from([None, 2.0, 10.0, 1e4]),
        st.sampled_from([0.5, 0.7, 0.95, 1.0]),
    ),
    min_size=1,
    max_size=5,
)


def cell_prior(votes, strength, p):
    return None if strength is None else build_mv_priors(votes, strength, p)


def assert_fits_equal(got, want):
    assert (got.best_epoch, got.stopped_epoch) == (want.best_epoch, want.stopped_epoch)
    for field in ("accuracy", "coverage"):
        np.testing.assert_allclose(
            getattr(got.params, field), getattr(want.params, field), rtol=1e-10
        )
    np.testing.assert_allclose(got.train_loss_history, want.train_loss_history, rtol=1e-10)
    np.testing.assert_allclose(got.val_loss_history, want.val_loss_history, rtol=1e-10)


class TestFitCells:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.integers(1, 5),
        st.sampled_from([None, 1, 7, 64]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 3),
        CELLS,
    )
    def test_stacked_cells_equal_separate_fits(
        self, seed, n, m, batch_size, learn_beta, with_val, patience, cells
    ):
        rng = np.random.default_rng(seed)
        votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        val = rng.integers(-1, 2, size=(max(1, n // 3), m)) if with_val else None
        priors = [cell_prior(votes, strength, p) for _, _, strength, p in cells]
        configs = [
            TrainConfig(
                learning_rate=lr, max_epochs=6, batch_size=batch_size, patience=patience,
                alpha_init=alpha, seed=seed % 1000, learn_beta=learn_beta,
            )
            for lr, alpha, _, _ in cells
        ]
        stacked = fit_cells(votes, val, priors, configs)
        assert len(stacked) == len(cells)
        for got, prior, config in zip(stacked, priors, configs):
            want = fit(votes, val, prior, config)
            assert_fits_equal(got, want)
            label_prior = LabelPrior() if prior is None else prior.label_prior
            np.testing.assert_array_equal(
                predict(votes, got.params, label_prior).labels,
                predict(votes, want.params, label_prior).labels,
            )

    def test_cells_stop_at_their_own_epochs(self):
        data = generate_synthetic(SyntheticSpec(m=4, n=400, accuracy=0.8, coverage=0.5, seed=5))
        train, val = data.votes[:300], data.votes[300:]
        priors = [build_mv_priors(train, 10.0, 0.7), None, build_mv_priors(train, 10.0, 1.0)]
        configs = [
            TrainConfig(learning_rate=lr, max_epochs=40, patience=2, alpha_init=0.9, seed=2)
            for lr in (0.5, 0.02, 0.2)
        ]
        stacked = fit_cells(train, val, priors, configs)
        wants = [fit(train, val, prior, config) for prior, config in zip(priors, configs)]
        assert len({want.stopped_epoch for want in wants}) > 1
        for got, want in zip(stacked, wants):
            assert_fits_equal(got, want)

    def test_failing_cell_leaves_the_others_alone(self):
        data = generate_synthetic(SyntheticSpec(m=3, n=200, accuracy=0.8, coverage=0.5, seed=6))
        train, val = data.votes[:150], data.votes[150:]
        # at alpha_init 1.0 pseudo-counts this large overflow the prior gradient
        huge = build_user_priors([1e305] * 3, [1e305] * 3)
        priors = [build_mv_priors(train, 10.0, 0.7), huge, None]
        for batch_size in (None, 16):
            config = TrainConfig(learning_rate=0.05, max_epochs=5, batch_size=batch_size)
            with np.errstate(all="ignore"):
                stacked = fit_cells(train, val, priors, [config] * 3)
                with pytest.raises(NumericalError, match="non-finite"):
                    fit(train, val, huge, config)
            assert isinstance(stacked[1], NumericalError)
            for cell in (0, 2):
                assert_fits_equal(stacked[cell], fit(train, val, priors[cell], config))

    def test_cells_beyond_the_cap_run_in_further_loops(self, monkeypatch):
        data = generate_synthetic(SyntheticSpec(m=3, n=120, accuracy=0.8, coverage=0.5, seed=8))
        train, val = data.votes[:100], data.votes[100:]
        priors = [build_mv_priors(train, s, p) for s in (2.0, 50.0) for p in (0.5, 0.9)] + [None]
        configs = [TrainConfig(learning_rate=lr, max_epochs=4, batch_size=16, seed=1)
                   for lr in (0.01, 0.05, 0.1, 0.2, 0.3)]
        whole = fit_cells(train, val, priors, configs)
        sizes = []

        def counted(train_votes, val_votes, priors, configs):
            sizes.append(len(configs))
            return fit_cells(train_votes, val_votes, priors, configs)

        monkeypatch.setattr(labelforge.train, "MAX_STACKED_ENTRIES", 2 * 100)
        monkeypatch.setattr(labelforge.train, "fit_cells", counted)
        blocks = fit_cells(train, val, priors, configs)
        assert sizes == [2, 2, 1]
        assert len(blocks) == len(whole) == 5
        for got, want in zip(blocks, whole):
            assert_fits_equal(got, want)

    def test_cells_must_share_the_loop_settings(self):
        votes = np.array([[1, 0], [0, -1], [1, -1], [-1, -1]])
        base = TrainConfig(max_epochs=3)
        for other in (
            replace(base, max_epochs=4),
            replace(base, batch_size=2),
            replace(base, patience=1),
            replace(base, seed=1),
            replace(base, learn_beta=True),
        ):
            with pytest.raises(DataError, match="share"):
                fit_cells(votes, None, [None, None], [base, other])
        anchored = build_user_priors([2, 2], [1, 1], mv_votes=[1, 1, 1, 1])
        with pytest.raises(DataError, match="anchors"):
            fit_cells(votes, None, [None, anchored], [base, base])
        with pytest.raises(DataError):
            fit_cells(votes, None, [None], [base, base])
