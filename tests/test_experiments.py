"""Experiment protocols: splits, the synthetic generator as sampling oracle,
grid search selection, and the sweep harnesses."""

import re
from dataclasses import replace

import numpy as np
import pytest

from labelforge import (
    DataError,
    Dataset,
    GridSpec,
    LabelPrior,
    ModelParams,
    NumericalError,
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
from labelforge.model import CLAMP_EPS, VoteRows
import labelforge.experiments
import labelforge.train

import kernel_reference as ref


def toy_dataset(n=300, seed=0):
    return generate_synthetic(
        SyntheticSpec(m=4, n=n, accuracy=(0.9, 0.8, 0.7, 0.6), coverage=0.6, seed=seed)
    )


def count_fit_cells(monkeypatch) -> list[int]:
    """Wrap experiments.fit_cells; the returned list gets each call's cell count."""
    calls = []
    real_fit_cells = labelforge.experiments.fit_cells

    def counting(votes, val_votes, priors, configs):
        calls.append(len(configs))
        return real_fit_cells(votes, val_votes, priors, configs)

    monkeypatch.setattr(labelforge.experiments, "fit_cells", counting)
    return calls


def count_groupings(monkeypatch) -> list[int]:
    """Wrap VoteRows.grouped; the returned list gets each call's row count."""
    calls = []
    real_grouped = VoteRows.grouped.__func__

    def counting(cls, votes):
        calls.append(len(votes))
        return real_grouped(cls, votes)

    monkeypatch.setattr(VoteRows, "grouped", classmethod(counting))
    return calls


class TestSplit:
    def test_default_sizes_n10(self):
        ds = toy_dataset(10)
        train, val, test = split(ds, 1)
        assert (train.n, val.n, test.n) == (7, 1, 2)

    def test_test_size_matches_published_count(self):
        ds = toy_dataset(1961)
        _, _, test = split(ds, 1)
        assert test.n == 392

    def test_same_seed_identical(self):
        ds = toy_dataset(50)
        a = split(ds, 9)
        b = split(ds, 9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.votes, y.votes)

    def test_partition_is_disjoint_and_complete(self):
        ds = toy_dataset(57)
        train, val, test = split(ds, 4)
        assert train.n + val.n + test.n == ds.n
        rebuilt = np.vstack([train.votes, val.votes, test.votes])
        assert sorted(map(tuple, rebuilt.tolist())) == sorted(map(tuple, ds.votes.tolist()))

    def test_smallest_legal_split(self):
        train, val, test = split(toy_dataset(3))
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
            split(Dataset([[1], [0]], [1, -1]))


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
        train, val, _ = split(ds, 2)
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=5, seed=1))
        assert result.best.index == 0
        assert len(result.cells) == 1

    def test_dominating_cell_wins(self):
        ds = toy_dataset(400)
        train, val, _ = split(ds, 2)
        # init 0.9 trains sensibly; init ~0 inverts every vote and loses each metric
        grid = GridSpec(strengths=(10.0,), learning_rates=(1e-6,), alpha_inits=(0.9, 0.05),
                        ps=(0.5,), force_abstain=(False,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        assert result.best.settings["alpha_init"] == 0.9
        assert result.best.wins == 5

    def test_mle_grid_ignores_prior_axes(self):
        ds = toy_dataset(120)
        train, val, _ = split(ds, 2)
        grid = GridSpec(learning_rates=(0.01, 0.05), alpha_inits=(0.8,))
        result = grid_search(train, val, grid, "mle", TrainConfig(max_epochs=3, seed=1))
        assert len(result.cells) == 2
        assert "strength" not in result.cells[0].settings

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(DataError):
            GridSpec(strengths=())

    @pytest.mark.parametrize("values", [
        {"strengths": 10.0},  # raised TypeError: no len()
        {"strengths": ("10",)},  # grid_search raised TypeError comparing str and int
        {"alpha_inits": (True,)},  # fitted alpha 1.0, a value read_grid refuses
    ], ids=["scalar", "string", "boolean"])
    def test_malformed_grid_values_rejected(self, values):
        (key,) = values
        with pytest.raises(DataError, match=f"grid key '{key}'"):
            GridSpec(**values)

    def test_grid_values_stored_as_tuples(self):
        assert GridSpec(strengths=[10, 100.0]).strengths == (10, 100.0)

    def test_map_grid_restricts_p(self, monkeypatch):
        # a label prior p that train refuses fails the whole search before any fit
        def no_fit_cells(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit_cells)
        ds = toy_dataset(60)
        train, val, _ = split(ds, 2)
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5, 0.2, 0.8), force_abstain=(False,))
        message = "label prior p must lie in [0.5, 1], got 0.2"
        with pytest.raises(DataError, match=re.escape(message)):
            grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))

    def test_zero_strength_cell_records_error(self, monkeypatch):
        # a strength that train refuses fails the whole search before any fit
        def no_fit_cells(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit_cells)
        ds = toy_dataset(120)
        train, val, _ = split(ds, 2)
        grid = GridSpec(strengths=(10.0, 0.0), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(False,))
        with pytest.raises(DataError, match="strength must be > 0, got 0.0"):
            grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))

    def test_failed_cell_never_best(self, monkeypatch):
        # an all-abstain validation matrix scores no metric, so no cell wins
        # one; the failed cell's best_epoch of 0 must not rank it first
        real_fit_cells = labelforge.experiments.fit_cells

        def first_cell_fails(votes, val_votes, priors, configs):
            results = real_fit_cells(votes, val_votes, priors, configs)
            return [NumericalError("synthetic failure"), *results[1:]]

        monkeypatch.setattr(labelforge.experiments, "fit_cells", first_cell_fails)
        ds = toy_dataset(120)
        train, _, _ = split(ds, 2)
        val = Dataset(np.zeros((10, 4), dtype=np.int8), np.ones(10, dtype=np.int8))
        grid = GridSpec(strengths=(1.0, 10.0), learning_rates=(0.05,), alpha_inits=(0.9,),
                        ps=(0.5,), force_abstain=(True,))
        result = grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))
        failed, ten = result.cells
        assert failed.error == "synthetic failure" and failed.report is None
        assert ten.error is None and ten.best_epoch > 0
        assert failed.wins == ten.wins == 0
        assert result.best is ten

    def test_every_cell_failing_raises_the_first_error(self, monkeypatch):
        def all_fail(votes, val_votes, priors, configs):
            return [NumericalError(f"cell {i} blew up") for i in range(len(configs))]

        monkeypatch.setattr(labelforge.experiments, "fit_cells", all_fail)
        ds = toy_dataset(120)
        train, val, _ = split(ds, 2)
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.05,), alpha_inits=(0.9, 0.8),
                        ps=(0.5,), force_abstain=(False,))
        with pytest.raises(NumericalError, match="^cell 0 blew up$"):
            grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, seed=1))

    @pytest.mark.parametrize("grid, fits", [
        # the benchmark's grid-minibatch grid, fitted at batch 64
        (GridSpec(strengths=(10.0, 100.0), learning_rates=(0.01,), alpha_inits=(0.8, 1.0),
                  ps=(0.5, 0.7, 0.9)), 12),
        (GridSpec(), 72),
    ], ids=["grid-minibatch", "default"])
    def test_force_abstain_cells_share_a_fit(self, monkeypatch, grid, fits):
        ds = toy_dataset(300)
        train, val, _ = split(ds, 2)
        config = TrainConfig(max_epochs=2, batch_size=64, seed=1)
        calls = count_fit_cells(monkeypatch)
        result = grid_search(train, val, grid, "map-mv", config)
        assert calls == [fits] and len(result.cells) == 2 * fits
        for force in grid.force_abstain:
            alone = grid_search(train, val, replace(grid, force_abstain=(force,)), "map-mv",
                                config)
            cells = [cell for cell in result.cells if cell.settings["force_abstain"] == force]
            assert [(c.settings, c.report, c.best_epoch) for c in cells] == [
                (c.settings, c.report, c.best_epoch) for c in alone.cells
            ]

    def test_each_split_is_grouped_once(self, monkeypatch):
        # the fit and the labelling share the validation grouping, and loops
        # beyond the stacking cap share both
        ds = toy_dataset(300)
        train, val, _ = split(ds, 2)
        grid = GridSpec(strengths=(10.0,), learning_rates=(0.01, 0.05), alpha_inits=(0.8, 1.0),
                        ps=(0.5, 0.9))
        patterns = VoteRows.grouped(train.votes)[0].n
        monkeypatch.setattr(labelforge.train, "MAX_STACKED_ENTRIES", 3 * patterns)
        calls = count_groupings(monkeypatch)
        grid_search(train, val, grid, "map-mv", TrainConfig(max_epochs=2, batch_size=64, seed=1))
        assert sorted(calls) == sorted([train.n, val.n])

    def test_default_map_grid_size(self):
        assert min(GridSpec().ps) == 0.5
        assert len(_grid_cells(GridSpec(), "map-mv")) == 144

    def test_erroring_cell_scores_zero_wins(self, monkeypatch):
        ds = toy_dataset(120)
        train, val, _ = split(ds, 2)
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
    @pytest.mark.parametrize("modes", [("mle",), ("map-mv", "mle", "map-emp")],
                             ids=["mle", "three-modes"])
    def test_full_size_single_replicate_matches_plain_run(self, modes):
        ds = toy_dataset(200)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=8, seed=7)
        train, val, test = split(ds, cfg.seed)
        rows = low_data_sweep(ds, [train.n], 1, modes=modes, config=cfg)
        agg = collect_aggregates(rows)

        train_idx, val_idx = low_data_indices(train.n, val.n, train.n, cfg.seed, 0)
        sub_train, sub_val = train.subset(train_idx), val.subset(val_idx)
        from labelforge import fit
        for mode in modes:
            prior = build_mode_priors(
                mode, sub_train.votes, sub_train.truth, 10.0, 0.5, False, cfg.seed
            )
            result = fit(sub_train.votes, sub_val.votes, prior, cfg)
            report = score(predict(test.votes, result.params, prior.label_prior), test.truth)
            assert agg[(mode, train.n, "f1", "mean")] == pytest.approx(report.f1, rel=1e-12)
            assert agg[(mode, train.n, "f1", "std")] == 0.0

    def test_reproducible(self):
        ds = toy_dataset(200)
        kwargs = dict(config=TrainConfig(max_epochs=4, seed=7))
        a = low_data_sweep(ds, [20, 50], 2, modes=("map-mv",), **kwargs)
        b = low_data_sweep(ds, [20, 50], 2, modes=("map-mv",), **kwargs)
        assert a == b

    def test_subsets_nested_across_sizes(self):
        small_t, small_v = low_data_indices(144, 16, 10, 7, 2)
        large_t, large_v = low_data_indices(144, 16, 100, 7, 2)
        assert set(small_t) <= set(large_t)
        assert set(small_v) <= set(large_v)
        assert len(small_t) == 10 and len(large_t) == 100

    def test_oversized_request_skipped_with_warning(self):
        ds = toy_dataset(60)
        with pytest.warns(UserWarning, match="skipping"):
            rows = low_data_sweep(ds, [10, 10_000], 1, modes=("mle",),
                                  config=TrainConfig(max_epochs=2, seed=1))
        sizes = {row["size"] for row in rows}
        assert 10_000 not in sizes


class TestStabilitySweep:
    def test_budget_zero_scores_initialized_model(self):
        ds = toy_dataset(150)
        train, _, test = split(ds, 1)
        cfg = TrainConfig(learning_rate=0.05, alpha_init=0.8, seed=2)
        rows = stability_sweep(train, test, [0], modes=("mle",), config=cfg)
        f1 = [r["value"] for r in rows if r["metric"] == "f1"][0]
        init_params = ModelParams(
            np.clip(np.full(train.m, 0.8), CLAMP_EPS, 1 - CLAMP_EPS),
            ref.coverage(train.votes),
        )
        expected = score(predict(test.votes, init_params, LabelPrior()), test.truth)
        assert f1 == expected.f1

    def test_priors_are_built_once_per_mode(self, monkeypatch):
        # no budget changes a prior; the table equals one sweep per budget,
        # full batch and in minibatches
        ds = toy_dataset(150)
        train, _, test = split(ds, 1)
        budgets = [0, 1, 3, 5]
        built = []
        real_build = labelforge.experiments.build_mode_priors

        def counting(mode, *args):
            built.append(mode)
            return real_build(mode, *args)

        monkeypatch.setattr(labelforge.experiments, "build_mode_priors", counting)
        for batch_size in (None, 16):
            cfg = TrainConfig(learning_rate=0.1, batch_size=batch_size, seed=5, alpha_init=0.9)
            per_budget = [
                row for b in budgets for row in stability_sweep(train, test, [b], config=cfg)
            ]
            built.clear()
            assert stability_sweep(train, test, budgets, config=cfg) == per_budget
            assert built == ["map-mv", "mle"]

    def test_identical_seeds_identical_curves(self):
        ds = toy_dataset(150)
        train, _, test = split(ds, 1)
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
        train, _, test = split(ds, 3)
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


@pytest.mark.parametrize(
    "sweep",
    [
        lambda ds, modes: low_data_sweep(ds, [50], 1, modes=modes),
        lambda ds, modes: stability_sweep(*split(ds)[::2], [1], modes=modes),
        lambda ds, modes: prior_quality_study(ds, modes=modes),
    ],
    ids=["lowdata", "stability", "study"],
)
def test_sweeps_reject_unknown_mode_before_fitting(sweep, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit)
    ds = toy_dataset(200)
    with pytest.raises(DataError, match="unknown mode 'bogus'"):
        sweep(ds, ("map-mv", "bogus"))
    for modes in ((), ("map-mv", "mle", "map-mv")):
        message = f"modes must be nonempty and distinct, got {list(modes)}"
        with pytest.raises(DataError, match=re.escape(message)):
            sweep(ds, modes)


THREE_MODES = ("map-mv", "mle", "map-emp")


@pytest.mark.parametrize(
    "sweep, cells",
    [
        (lambda ds, cfg: low_data_sweep(ds, [20, 50], 2, modes=THREE_MODES, config=cfg),
         [3, 3, 3, 3]),
        (lambda ds, cfg: stability_sweep(*split(ds)[::2], [0, 2, 4], modes=THREE_MODES,
                                         config=cfg), [9]),
        (lambda ds, cfg: prior_quality_study(ds, config=cfg), [4]),
    ],
    ids=["lowdata", "stability", "study"],
)
def test_sweeps_fit_all_modes_in_one_call_per_split(sweep, cells, monkeypatch):
    # stability fits every (budget, mode) cell in one call
    calls = count_fit_cells(monkeypatch)
    sweep(toy_dataset(200), TrainConfig(max_epochs=2, seed=1))
    assert calls == cells


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
