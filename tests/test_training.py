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
from labelforge.model import CLAMP_EPS, BetaPrior, VoteRows, class_prior_table
from labelforge.experiments import holdout
from labelforge.priors import beta_from_mean, build_mle_priors, build_uniform_priors
import labelforge.train
from labelforge.train import beta_map, fit_cells, grad_accuracy

import kernel_reference as ref

MLE = build_mle_priors()  # the plain likelihood under the symmetric label prior


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
            rows = VoteRows.of(votes)

            def objective(a):
                return ref.log_objective(rows, 0.7, a, cov, prior.accuracy_prior)

            analytic = grad_accuracy(
                rows, class_prior_table(0.7), acc, prior.accuracy_prior, 1.0
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
            rows = VoteRows.of(votes)

            def objective(c):
                return ref.log_objective(rows, 0.5, acc, c, prior.accuracy_prior, cov_prior)

            # the coverage MAP is closed-form: the gradient vanishes there,
            # or, at a clamp, the objective falls into the interval
            best = beta_map(rows.count, rows.total - rows.count, cov_prior)
            inside = (best > CLAMP_EPS) & (best < 1.0 - CLAMP_EPS)
            numeric = finite_difference(objective, best)[inside]
            np.testing.assert_allclose(
                0.0, numeric, atol=1e-5 * max(1.0, np.abs(numeric).max(initial=0.0))
            )
            for j in np.flatnonzero(~inside):
                inward = best.copy()
                inward[j] += 1e-5 if best[j] == CLAMP_EPS else -1e-5
                assert objective(inward) < objective(best)

    def test_all_abstain_row_zero_gradient(self):
        rows = VoteRows.of([[0, 0]])
        uniform = build_uniform_priors(2).accuracy_prior
        acc = np.array([0.7, 0.6])
        grad = grad_accuracy(rows, class_prior_table(0.5), acc, uniform, 1.0)
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_strong_prior_dominates_sign(self):
        rows = VoteRows.of([[1, 1], [-1, -1], [1, -1]])
        prior = build_user_priors([0.7e6, 0.7e6], [0.3e6, 0.3e6]).accuracy_prior
        table = class_prior_table(0.5)
        low = grad_accuracy(rows, table, np.array([0.5, 0.5]), prior, 1.0)
        high = grad_accuracy(rows, table, np.array([0.9, 0.9]), prior, 1.0)
        assert (low > 0).all()
        assert (high < 0).all()


class TestFit:
    def test_single_abstain_row(self):
        result = fit([[0]], None, None, TrainConfig(max_epochs=5, alpha_init=0.8))
        assert result.params.accuracy[0] == pytest.approx(0.8)
        assert result.params.coverage[0] == 0.0

    def test_no_prior_spec_is_the_mle_spec(self):
        # fit's None stands for the spec without an accuracy prior, bit for bit
        data = generate_synthetic(SyntheticSpec(m=4, n=200, accuracy=0.8, coverage=0.6, seed=9))
        votes, val = data.votes[:160], data.votes[160:]
        for batch_size in (None, 16):
            cfg = TrainConfig(learning_rate=0.05, max_epochs=6, batch_size=batch_size,
                              alpha_init=0.8, seed=3)
            plain, spec = fit(votes, val, None, cfg), fit(votes, val, MLE, cfg)
            np.testing.assert_array_equal(plain.params.accuracy, spec.params.accuracy)
            np.testing.assert_array_equal(plain.params.coverage, spec.params.coverage)
            assert plain.train_loss_history == spec.train_loss_history
            assert plain.val_loss_history == spec.val_loss_history
            assert (plain.stopped_epoch, plain.best_epoch) == (spec.stopped_epoch, spec.best_epoch)

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
        # with a (uniform) accuracy prior and with none: a prior whose weight
        # came from the pattern count would weigh more against twice the data
        cfg = TrainConfig(learning_rate=0.05, max_epochs=15, alpha_init=0.6)
        for prior in (build_uniform_priors(4, p=0.8), None):
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
        # the label prior reaches the step and both losses through each row's
        # majority-vote anchor, as in the gradient and objective oracles
        data = generate_synthetic(SyntheticSpec(m=3, n=60, accuracy=0.8, coverage=0.6, seed=4))
        votes, val = data.votes[:45], data.votes[45:]
        prior = build_mv_priors(votes, 10.0, p)
        cfg = TrainConfig(learning_rate=0.2, max_epochs=1, batch_size=batch_size, alpha_init=0.7,
                          seed=3)
        result = fit(votes, val, prior, cfg)

        rows, table = VoteRows.of(votes), class_prior_table(p)
        acc, cov = np.full(3, 0.7), ref.coverage(votes)
        if batch_size is None:
            batches = [rows]
        else:
            order = np.random.default_rng(np.random.SeedSequence([3, 1])).permutation(45)
            batches = [ref.batch_rows(rows, order[i : i + batch_size])
                       for i in range(0, 45, batch_size)]
        for batch in batches:
            grad = grad_accuracy(batch, table, acc, prior.accuracy_prior, batch.n / 45)
            acc = np.clip(acc + 0.2 / batch.n * grad, CLAMP_EPS, 1.0 - CLAMP_EPS)
        np.testing.assert_allclose(result.params.accuracy, acc, rtol=1e-12)
        val_rows = VoteRows.of(val)
        for history, scored in (
            (result.train_loss_history, rows),
            (result.val_loss_history, val_rows),
        ):
            expected = -ref.log_objective(scored, p, acc, cov, prior.accuracy_prior)
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

        rows, _ = VoteRows.grouped(votes)
        assert (rows.n < n) == (m == 10)  # patterns, or one row per input row
        table = class_prior_table([p])  # one cell
        acc_prior = BetaPrior(prior.accuracy_prior.u[None], prior.accuracy_prior.v[None])
        acc = np.full((1, m), 0.7)
        cov = np.clip(rows.count / n, CLAMP_EPS, 1.0 - CLAMP_EPS)[None]
        plain = VoteRows.of(votes)
        for epoch in range(epochs):
            grad = grad_accuracy(rows, table, acc, acc_prior, 1.0)
            acc = np.clip(acc + lr / rows.total * grad, CLAMP_EPS, 1.0 - CLAMP_EPS)
            expected = -ref.log_objective(plain, p, acc[0], cov[0], prior.accuracy_prior)
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
    """Coverage estimates. A fit reports the train rows' vote rate; a
    coverage under a beta prior is :func:`beta_map`'s closed-form mode."""

    def test_learned_coverage_near_empirical(self):
        data = generate_synthetic(
            SyntheticSpec(m=3, n=1500, accuracy=(0.85, 0.75, 0.65), coverage=(0.7, 0.4, 0.2), seed=6)
        )
        empirical = ref.coverage(data.votes)
        hits = (data.votes != 0).sum(axis=0)
        prior = BetaPrior(*beta_from_mean(empirical, 10.0))
        assert np.linalg.norm(beta_map(hits, 1500 - hits, prior) - empirical) < 0.05

    def test_strong_coverage_prior_pins(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=800, accuracy=0.8, coverage=(0.6, 0.3), seed=7))
        hits = (data.votes != 0).sum(axis=0)
        means = np.array([0.5, 0.5])
        best = beta_map(hits, 800 - hits, BetaPrior(*beta_from_mean(means, 1e6)))
        assert np.abs(best - means).max() < 0.01
        assert np.abs(ref.coverage(data.votes) - means).max() > 0.1

    def test_beta_map_is_the_mode_under_empirical_coverage_prior(self):
        # the mode of the beta posterior whose prior means are the empirical
        # coverages, in closed form
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        empirical = ref.coverage(data.votes)
        u, v = beta_from_mean(empirical, 10.0)
        votes = (data.votes != 0).sum(axis=0)
        a, b = votes + u - 1.0, (100 - votes) + v - 1.0
        expected = np.clip(a / (a + b), CLAMP_EPS, 1.0 - CLAMP_EPS)
        assert ((a > 0) & (b > 0)).all()
        np.testing.assert_array_equal(beta_map(votes, 100 - votes, BetaPrior(u, v)), expected)
        assert not np.array_equal(expected, empirical)

    def test_fixed_coverage_path_untouched(self):
        data = generate_synthetic(SyntheticSpec(m=2, n=100, accuracy=0.8, coverage=0.5, seed=9))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=5, seed=3)
        result = fit(data.votes, None, None, cfg)
        np.testing.assert_array_equal(result.params.coverage, ref.coverage(data.votes))


class TestBetaMap:
    def test_sign_decides_at_the_clamps(self):
        # (count + u - 1) / (total + u + v - 2) gives (1 - eps, eps) here:
        # with u, v < 1 an LF that never or always votes makes it negative.
        # A fit reports the rates themselves, unclamped.
        votes = np.array([[0, 1]])
        prior = build_mv_priors(votes, 0.5)
        cfg = TrainConfig(max_epochs=1)
        expected = [CLAMP_EPS, 1.0 - CLAMP_EPS]
        np.testing.assert_array_equal(fit(votes, None, prior, cfg).params.coverage, [0.0, 1.0])
        cov_prior = BetaPrior(*beta_from_mean(np.array([0.0, 1.0]), 0.5))
        np.testing.assert_array_equal(
            beta_map(np.array([0.0, 1.0]), np.array([1.0, 0.0]), cov_prior), expected
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 1000),
        st.integers(0, 1000),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_no_point_of_the_interval_is_higher(self, hits, misses, u, v):
        best = float(beta_map(hits, misses, BetaPrior(np.array([u]), np.array([v])))[0])
        assert CLAMP_EPS <= best <= 1.0 - CLAMP_EPS
        a, b = hits + u - 1.0, misses + v - 1.0
        ends = np.geomspace(CLAMP_EPS, 0.5, 2001)
        grid = np.concatenate([np.linspace(CLAMP_EPS, 1.0 - CLAMP_EPS, 20001), ends, 1.0 - ends])

        def objective(x):
            return a * np.log(x) + b * np.log1p(-x)

        top = objective(best)
        assert objective(grid).max() <= top + 1e-12 * max(1.0, abs(top))


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
# the plain likelihood), label-prior p and epoch budget.
CELLS = st.lists(
    st.tuples(
        st.floats(0.001, 0.5),
        st.sampled_from([0.55, 0.8, 1.0]),
        st.sampled_from([None, 2.0, 10.0, 1e4]),
        st.sampled_from([0.5, 0.7, 0.95, 1.0]),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=5,
)


def cell_prior(votes, strength, p):
    return build_mle_priors(p) if strength is None else build_mv_priors(votes, strength, p)


def grouped(votes):
    """The (rows, inverse) pair :func:`fit_cells` takes; None stays None."""
    return None if votes is None else VoteRows.grouped(votes)


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
        st.integers(0, 3),
        CELLS,
    )
    def test_stacked_cells_equal_separate_fits(
        self, seed, n, m, batch_size, with_val, patience, cells
    ):
        rng = np.random.default_rng(seed)
        votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        val = rng.integers(-1, 2, size=(max(1, n // 3), m)) if with_val else None
        priors = [cell_prior(votes, strength, p) for _, _, strength, p, _ in cells]
        configs = [
            TrainConfig(
                learning_rate=lr, max_epochs=epochs, batch_size=batch_size, patience=patience,
                alpha_init=alpha, seed=seed % 1000,
            )
            for lr, alpha, _, _, epochs in cells
        ]
        stacked = fit_cells(grouped(votes), grouped(val), priors, configs)
        assert len(stacked) == len(cells)
        for got, prior, config in zip(stacked, priors, configs):
            want = fit(votes, val, prior, config)
            assert_fits_equal(got, want)
            np.testing.assert_array_equal(
                predict(votes, got.params, prior.label_prior).labels,
                predict(votes, want.params, prior.label_prior).labels,
            )

    def test_cells_stop_at_their_own_epochs(self):
        data = generate_synthetic(SyntheticSpec(m=4, n=400, accuracy=0.8, coverage=0.5, seed=5))
        train, val = data.votes[:300], data.votes[300:]
        priors = [build_mv_priors(train, 10.0, 0.7), MLE, build_mv_priors(train, 10.0, 1.0)]
        configs = [
            TrainConfig(learning_rate=lr, max_epochs=40, patience=2, alpha_init=0.9, seed=2)
            for lr in (0.5, 0.02, 0.2)
        ]
        stacked = fit_cells(grouped(train), grouped(val), priors, configs)
        wants = [fit(train, val, prior, config) for prior, config in zip(priors, configs)]
        assert len({want.stopped_epoch for want in wants}) > 1
        for got, want in zip(stacked, wants):
            assert_fits_equal(got, want)

    def test_failing_cell_leaves_the_others_alone(self):
        data = generate_synthetic(SyntheticSpec(m=3, n=200, accuracy=0.8, coverage=0.5, seed=6))
        train, val = data.votes[:150], data.votes[150:]
        # at alpha_init 1.0 pseudo-counts this large overflow the prior gradient
        huge = build_user_priors([1e305] * 3, [1e305] * 3)
        priors = [build_mv_priors(train, 10.0, 0.7), huge, MLE]
        for batch_size in (None, 16):
            config = TrainConfig(learning_rate=0.05, max_epochs=5, batch_size=batch_size)
            with np.errstate(all="ignore"):
                stacked = fit_cells(grouped(train), grouped(val), priors, [config] * 3)
                with pytest.raises(NumericalError, match="non-finite"):
                    fit(train, val, huge, config)
            assert isinstance(stacked[1], NumericalError)
            for cell in (0, 2):
                assert_fits_equal(stacked[cell], fit(train, val, priors[cell], config))

    def test_cells_beyond_the_cap_run_in_further_loops(self, monkeypatch):
        # the cap counts the larger split's patterns, and every loop reuses
        # the caller's groupings
        data = generate_synthetic(SyntheticSpec(m=3, n=120, accuracy=0.8, coverage=0.5, seed=8))
        train, val = grouped(data.votes[:100]), grouped(data.votes[100:])
        priors = [build_mv_priors(data.votes[:100], s, p)
                  for s in (2.0, 50.0) for p in (0.5, 0.9)] + [MLE]
        configs = [TrainConfig(learning_rate=lr, max_epochs=4, batch_size=16, seed=1)
                   for lr in (0.01, 0.05, 0.1, 0.2, 0.3)]
        whole = fit_cells(train, val, priors, configs)
        sizes = []

        def counted(train, val, priors, configs):
            sizes.append(len(configs))
            return fit_cells(train, val, priors, configs)

        def no_grouping(cls, votes):
            raise AssertionError("fit_cells grouped a matrix")

        patterns = max(train[0].n, val[0].n)
        assert patterns < 100  # rows repeat, so a cap of 2 * rows would fit 5 cells in a loop
        monkeypatch.setattr(labelforge.train, "MAX_STACKED_ENTRIES", 2 * patterns)
        monkeypatch.setattr(labelforge.train, "fit_cells", counted)
        monkeypatch.setattr(VoteRows, "grouped", classmethod(no_grouping))
        blocks = fit_cells(train, val, priors, configs)
        assert sizes == [2, 2, 1]
        assert len(blocks) == len(whole) == 5
        for got, want in zip(blocks, whole):
            assert_fits_equal(got, want)

    def test_prior_spec_is_independent_of_the_rows(self):
        # a spec built on the full matrix fits a holdout split of it: the
        # label prior anchors to the split's own majority votes, as under a
        # spec built from no matrix at all
        data = generate_synthetic(SyntheticSpec(m=4, n=300, accuracy=0.8, coverage=0.6, seed=5))
        train, val = holdout(data, 0.2, seed=2)
        built = build_mv_priors(data.votes, 10.0, p=0.8, force_abstain=True)
        plain = build_user_priors(
            built.accuracy_prior.u, built.accuracy_prior.v, 0.8, force_abstain=True
        )
        assert plain.label_prior == LabelPrior(0.8, force_abstain=True) == built.label_prior
        for batch_size in (None, 32):
            config = TrainConfig(learning_rate=0.05, max_epochs=5, batch_size=batch_size,
                                 alpha_init=0.7, seed=1)
            want = fit(train.votes, val.votes, plain, config)
            got = fit(train.votes, val.votes, built, config)
            np.testing.assert_array_equal(got.params.accuracy, want.params.accuracy)
            np.testing.assert_array_equal(got.params.coverage, want.params.coverage)
            assert got.train_loss_history == want.train_loss_history
            assert got.val_loss_history == want.val_loss_history
            # and the two specs stack in one loop, each cell equal to its fit
            for got in fit_cells(grouped(train.votes), grouped(val.votes), [built, plain],
                                 [config, config]):
                assert_fits_equal(got, want)

    def test_cells_must_share_the_loop_settings(self):
        # the batch stream and the stop rule are shared; each cell has its own budget
        votes = grouped(np.array([[1, 0], [0, -1], [1, -1], [-1, -1]]))
        base = TrainConfig(max_epochs=3)
        for other in (
            replace(base, batch_size=2),
            replace(base, patience=1),
            replace(base, seed=1),
        ):
            with pytest.raises(DataError, match="share"):
                fit_cells(votes, None, [MLE, MLE], [base, other])
        with pytest.raises(DataError):
            fit_cells(votes, None, [MLE], [base, base])
        three, four = fit_cells(votes, None, [MLE, MLE], [base, replace(base, max_epochs=4)])
        assert (three.stopped_epoch, four.stopped_epoch) == (3, 4)

    def test_cells_with_and_without_a_prior_share_one_coverage(self):
        # every cell reports the train rows' rate, each in its own array
        data = generate_synthetic(SyntheticSpec(m=3, n=200, accuracy=0.8, coverage=0.5, seed=4))
        train, val = data.votes[:150], data.votes[150:]
        priors = [build_mv_priors(train, 10.0, 0.7), MLE]
        config = TrainConfig(learning_rate=0.05, max_epochs=6, alpha_init=0.8, seed=2)
        stacked = fit_cells(grouped(train), grouped(val), priors, [config, config])
        wants = [fit(train, val, prior, config) for prior in priors]
        for got, want in zip(stacked, wants):
            assert_fits_equal(got, want)
            np.testing.assert_array_equal(got.params.coverage, ref.coverage(train))
        assert not np.array_equal(stacked[0].params.accuracy, stacked[1].params.accuracy)
        assert not np.shares_memory(stacked[0].params.coverage, stacked[1].params.coverage)
