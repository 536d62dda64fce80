"""Experiment protocols: splits, the synthetic generator as sampling oracle,
grid search selection, and the sweep harnesses."""

import numpy as np
import pytest

from labelforge import (
    DataError,
    Dataset,
    GridSpec,
    LabelPrior,
    ModelParams,
    NumericalError,
    SplitSpec,
    SyntheticSpec,
    TrainConfig,
    generate_synthetic,
    grid_search,
    low_data_sweep,
    predict,
    prior_quality_study,
    score,
    split,
    stability_sweep,
)
from labelforge.experiments import (
    _grid_cells,
    build_mode_priors,
    collect_aggregates,
    holdout,
    low_data_indices,
)
from labelforge.model import CLAMP_EPS
import labelforge.experiments

import kernel_reference as ref


def toy_dataset(n=300, seed=0):
    return generate_synthetic(
        SyntheticSpec(m=4, n=n, accuracy=(0.9, 0.8, 0.7, 0.6), coverage=0.6, seed=seed)
    )


class TestSplit:
    def test_default_sizes_n10(self):
        ds = toy_dataset(10)
        train, val, test = split(ds, SplitSpec(seed=1))
        assert (train.n, val.n, test.n) == (7, 1, 2)

    def test_test_size_matches_published_count(self):
        ds = toy_dataset(1961)
        _, _, test = split(ds, SplitSpec(seed=1))
        assert test.n == 392

    def test_same_seed_identical(self):
        ds = toy_dataset(50)
        a = split(ds, SplitSpec(seed=9))
        b = split(ds, SplitSpec(seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.votes, y.votes)

    def test_partition_is_disjoint_and_complete(self):
        ds = toy_dataset(57)
        train, val, test = split(ds, SplitSpec(seed=4))
        assert train.n + val.n + test.n == ds.n
        rebuilt = np.vstack([train.votes, val.votes, test.votes])
        assert sorted(map(tuple, rebuilt.tolist())) == sorted(map(tuple, ds.votes.tolist()))

    def test_smallest_legal_split(self):
        train, val, test = split(toy_dataset(3), SplitSpec())
        assert (train.n, val.n, test.n) == (1, 1, 1)

    def test_validation_share_follows_seeded_permutation(self):
        ds = toy_dataset(40)
        perm = np.random.default_rng(5).permutation(40)
        train, val = holdout(ds, 0.25, 5)
        np.testing.assert_array_equal(val.votes, ds.votes[perm[:10]])
        np.testing.assert_array_equal(train.votes, ds.votes[perm[10:]])
        train, val = holdout(ds, 0.01, 5)  # rounds to no validation rows
        assert train is ds and val is None
        for frac in (-0.1, 1.0, 0.99):  # 0.99 leaves no training rows
            with pytest.raises(DataError):
                holdout(ds, frac, 5)

    def test_too_small(self):
        with pytest.raises(DataError):
            split(Dataset([[1], [0]], [1, -1]), SplitSpec())


class TestGenerateSynthetic:
    def test_zero_coverage_all_abstain(self):
        ds = generate_synthetic(SyntheticSpec(m=3, n=50, accuracy=0.8, coverage=0.0, seed=1))
        assert (ds.votes == 0).all()

    def test_perfect_lf_equals_truth(self):
        ds = generate_synthetic(SyntheticSpec(m=2, n=80, accuracy=1.0, coverage=1.0, seed=2))
        np.testing.assert_array_equal(ds.votes[:, 0], ds.truth)

    def test_coverage_concentration(self):
        cov = np.array([0.2, 0.5, 0.8])
        ds = generate_synthetic(SyntheticSpec(m=3, n=5000, accuracy=0.8, coverage=tuple(cov), seed=3))
        observed = ref.coverage(ds.votes)
        bound = 3 * np.sqrt(cov * (1 - cov) / 5000)
        assert (np.abs(observed - cov) <= bound).all()

    def test_agreement_rate_matches_accuracy(self):
        acc = np.array([0.9, 0.7, 0.55])
        ds = generate_synthetic(SyntheticSpec(m=3, n=20000, accuracy=tuple(acc), coverage=0.5, seed=4))
        for j in range(3):
            voted = ds.votes[:, j] != 0
            agree = (ds.votes[voted, j] == ds.truth[voted]).mean()
            assert abs(agree - acc[j]) < 0.02

    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(m=2, n=30, accuracy=0.8, coverage=0.5, seed=5))
        b = generate_synthetic(SyntheticSpec(m=2, n=30, accuracy=0.8, coverage=0.5, seed=5))
        np.testing.assert_array_equal(a.votes, b.votes)
        np.testing.assert_array_equal(a.truth, b.truth)


class TestGridSearch:
    def test_single_cell_wins(self):
        ds = toy_dataset(120)
        train, val, _ = split(ds, SplitSpec(seed=2))
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=5, seed=1))
        assert result.best.index == 0
        assert len(result.cells) == 1

    def test_dominating_cell_wins(self):
        ds = toy_dataset(400)
        train, val, _ = split(ds, SplitSpec(seed=2))
        # init 0.9 trains sensibly; init ~0 inverts every vote and loses each metric
        grid = GridSpec(strengths=(10.0,), learning_rates=(1e-6,), alpha_inits=(0.9, 0.05),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        assert result.best.settings["alpha_init"] == 0.9
        assert result.best.wins == 5

    def test_mle_grid_ignores_prior_axes(self):
        ds = toy_dataset(120)
        train, val, _ = split(ds, SplitSpec(seed=2))
        grid = GridSpec(learning_rates=(0.01, 0.05), alpha_inits=(0.8,))
        result = grid_search(train, val, grid, "mle", TrainConfig(max_epochs=3, seed=1))
        assert len(result.cells) == 2
        assert "strength" not in result.cells[0].settings

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(DataError):
            GridSpec(strengths=())

    def test_map_grid_restricts_p(self):
        ds = toy_dataset(60)
        train, val, _ = split(ds, SplitSpec(seed=2))
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.2, 0.5, 0.8), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        assert sorted(c.settings["p"] for c in result.cells) == [0.5, 0.8]

    def test_zero_strength_cell_records_error(self):
        ds = toy_dataset(120)
        train, val, _ = split(ds, SplitSpec(seed=2))
        grid = GridSpec(strengths=(0.0, 10.0), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        zero, ten = result.cells
        assert zero.report is None and "strength" in zero.error
        assert ten.error is None and result.best is ten

    def test_failed_cell_never_best(self):
        # an all-abstain validation matrix scores no metric, so no cell wins
        # one; the failed cell's best_epoch of 0 must not rank it first
        ds = toy_dataset(120)
        train, _, _ = split(ds, SplitSpec(seed=2))
        val = Dataset(np.zeros((10, 4), dtype=np.int8), np.ones(10, dtype=np.int8))
        grid = GridSpec(strengths=(0.0, 10.0), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(True,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        zero, ten = result.cells
        assert zero.error is not None and ten.error is None
        assert zero.wins == ten.wins == 0
        assert result.best is ten

    def test_default_map_grid_size(self):
        assert min(GridSpec().ps) == 0.5
        assert len(_grid_cells(GridSpec(), "map-mv")) == 144

    def test_erroring_cell_scores_zero_wins(self, monkeypatch):
        ds = toy_dataset(120)
        train, val, _ = split(ds, SplitSpec(seed=2))
        real_fit_cells = labelforge.experiments.fit_cells

        def flaky_fit_cells(votes, val_votes, priors, configs):
            results = real_fit_cells(votes, val_votes, priors, configs)
            return [
                NumericalError("synthetic failure") if config.alpha_init == 0.05 else result
                for result, config in zip(results, configs)
            ]

        monkeypatch.setattr(labelforge.experiments, "fit_cells", flaky_fit_cells)
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9, 0.05),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        failed = [c for c in result.cells if c.error is not None]
        assert len(failed) == 1 and failed[0].wins == 0
        assert result.best.settings["alpha_init"] == 0.9


class TestLowDataSweep:
    def test_full_size_single_replicate_matches_plain_run(self):
        ds = toy_dataset(200)
        spec = SplitSpec(seed=3)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=8, seed=7)
        train, val, test = split(ds, SplitSpec(seed=spec.seed + 0))
        rows = low_data_sweep(ds, [train.n], 1, modes=("mle",), split_spec=spec, config=cfg)
        agg = collect_aggregates(rows)

        train_idx, val_idx = low_data_indices(train.n, val.n, train.n, 0.1, cfg.seed, 0)
        sub_train, sub_val = train.subset(train_idx), val.subset(val_idx)
        prior = build_mode_priors("mle", sub_train.votes, sub_train.truth, 10.0, 0.5, False, cfg.seed)
        from labelforge import fit
        result = fit(sub_train.votes, sub_val.votes, prior, cfg)
        report = score(predict(test.votes, result.params, LabelPrior()), test.truth)
        assert agg[("mle", train.n, "f1", "mean")] == report.f1
        assert agg[("mle", train.n, "f1", "std")] == 0.0

    def test_reproducible(self):
        ds = toy_dataset(200)
        kwargs = dict(split_spec=SplitSpec(seed=3), config=TrainConfig(max_epochs=4, seed=7))
        a = low_data_sweep(ds, [20, 50], 2, modes=("map-mv",), **kwargs)
        b = low_data_sweep(ds, [20, 50], 2, modes=("map-mv",), **kwargs)
        assert a == b

    def test_subsets_nested_across_sizes(self):
        small_t, small_v = low_data_indices(144, 16, 10, 0.1, 7, 2)
        large_t, large_v = low_data_indices(144, 16, 100, 0.1, 7, 2)
        assert set(small_t) <= set(large_t)
        assert set(small_v) <= set(large_v)
        assert len(small_t) == 10 and len(large_t) == 100

    def test_oversized_request_skipped_with_warning(self):
        ds = toy_dataset(60)
        with pytest.warns(UserWarning, match="skipping"):
            rows = low_data_sweep(ds, [10, 10_000], 1, modes=("mle",),
                                  split_spec=SplitSpec(seed=1),
                                  config=TrainConfig(max_epochs=2, seed=1))
        sizes = {row["size"] for row in rows}
        assert 10_000 not in sizes


class TestStabilitySweep:
    def test_budget_zero_scores_initialized_model(self):
        ds = toy_dataset(150)
        train, _, test = split(ds, SplitSpec(seed=1))
        cfg = TrainConfig(learning_rate=0.05, alpha_init=0.8, seed=2)
        rows = stability_sweep(train, test, [0], modes=("mle",), config=cfg)
        f1 = [r["value"] for r in rows if r["metric"] == "f1"][0]
        init_params = ModelParams(
            np.clip(np.full(train.m, 0.8), CLAMP_EPS, 1 - CLAMP_EPS),
            ref.coverage(train.votes),
        )
        expected = score(predict(test.votes, init_params, LabelPrior()), test.truth)
        assert f1 == expected.f1

    def test_identical_seeds_identical_curves(self):
        ds = toy_dataset(150)
        train, _, test = split(ds, SplitSpec(seed=1))
        cfg = TrainConfig(learning_rate=0.1, seed=5, alpha_init=0.9)
        a = stability_sweep(train, test, [0, 3, 6], config=cfg)
        b = stability_sweep(train, test, [0, 3, 6], config=cfg)
        assert a == b

    def test_strong_priors_stabilize_late_training(self):
        # misleading low-coverage LFs; large steps keep MLE moving across
        # budgets while the strongly regularized model stays pinned
        ds = generate_synthetic(
            SyntheticSpec(m=5, n=140, accuracy=(0.9, 0.85, 0.8, 0.3, 0.25),
                          coverage=(0.6, 0.5, 0.6, 0.2, 0.15), seed=21)
        )
        train, _, test = split(ds, SplitSpec(seed=3))
        rows = stability_sweep(
            train, test, [30, 60, 120, 250, 500], modes=("map-mv", "mle"),
            config=TrainConfig(learning_rate=0.8, alpha_init=0.9, seed=9),
            strength=1e4,
        )
        f1 = {}
        for row in rows:
            if row["metric"] == "f1" and row["value"] is not None:
                f1.setdefault(row["mode"], []).append(row["value"])
        map_range = max(f1["map-mv"]) - min(f1["map-mv"])
        mle_range = max(f1["mle"]) - min(f1["mle"])
        assert map_range < mle_range


class TestPriorQualityStudy:
    def test_empirical_prior_distance_is_zero(self):
        ds = toy_dataset(300)
        study = prior_quality_study(ds, strength=100.0, config=TrainConfig(max_epochs=10, seed=1))
        assert study["map-emp"]["prior_l2"] == 0.0
        assert study["mle"]["prior_l2"] is None

    def test_empirical_beats_random_priors(self):
        ds = generate_synthetic(
            SyntheticSpec(m=5, n=3000, accuracy=(0.9, 0.8, 0.7, 0.85, 0.6), coverage=0.5, seed=50)
        )
        study = prior_quality_study(
            ds, strength=100.0,
            config=TrainConfig(learning_rate=0.05, max_epochs=60, alpha_init=0.9, seed=2),
        )
        assert study["map-emp"]["alpha_l2"] <= study["map-rand"]["alpha_l2"]

    def test_requires_truth(self):
        ds = Dataset(toy_dataset(50).votes, None)
        with pytest.raises(DataError):
            prior_quality_study(ds)
