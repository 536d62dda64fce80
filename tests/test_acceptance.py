"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines inline)."""

import os
import time

import numpy as np
import pytest

from labelforge import (
    LabelPrior,
    ModelParams,
    SplitSpec,
    SyntheticSpec,
    TrainConfig,
    build_mv_priors,
    build_user_priors,
    fit,
    generate_synthetic,
    load_model,
    majority_vote,
    majority_vote_predictions,
    predict,
    prior_quality_study,
    low_data_sweep,
    read_dataset,
    save_model,
    score,
    split,
    write_dataset,
)
from labelforge.cli import cli_main
from labelforge.dataio import model_file_from_fit
from labelforge.experiments import collect_aggregates
from labelforge.metrics import format_percent, metrics_from_confusion
from labelforge.model import BetaPrior, VoteRows, label_prior_pairs, log_objective
from labelforge.priors import beta_from_mean, build_uniform_priors, reference_accuracies
from labelforge.train import grad_accuracy, grad_coverage

import kernel_reference as ref


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def central_difference(objective, x0, step=1e-5):
    grad = np.zeros_like(x0)
    for j in range(x0.shape[0]):
        up, down = x0.copy(), x0.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (objective(up) - objective(down)) / (2 * step)
    return grad


def test_criterion_01_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(1, 9))
        votes = rng.integers(-1, 2, size=(n, m))
        acc = rng.uniform(0.15, 0.85, m)
        cov = rng.uniform(0.15, 0.85, m)
        strength = float(rng.choice([10.0, 100.0]))
        prior = build_mv_priors(votes, strength, p=float(rng.choice([0.5, 0.7, 0.9])))
        pairs = label_prior_pairs(prior.label_prior.mv_votes, prior.label_prior.p)
        rows = VoteRows.of(votes, pairs)
        cov_prior = BetaPrior(*beta_from_mean(ref.coverage(votes), strength))

        def obj_acc(a):
            return log_objective(rows, a, cov, prior.accuracy_prior, cov_prior)

        def obj_cov(c):
            return log_objective(rows, acc, c, prior.accuracy_prior, cov_prior)

        g_acc = grad_accuracy(rows, ref.prior_odds(rows), acc, cov, prior.accuracy_prior, 1.0)
        fd_acc = central_difference(obj_acc, acc)
        g_cov = grad_coverage(rows, cov, cov_prior, 1.0)
        fd_cov = central_difference(obj_cov, cov)
        for g, fd in ((g_acc, fd_acc), (g_cov, fd_cov)):
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    verdict(
        1,
        worst < 1e-5 and elapsed < 10.0,
        f"gradient oracle over 100 configs: worst rel err {worst:.2e} "
        f"(< 1e-5), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_mle_map_reduction():
    start = time.time()
    rng = np.random.default_rng(2002)
    identical = 0
    for trial in range(20):
        n = int(rng.integers(8, 60))
        m = int(rng.integers(1, 7))
        votes = rng.integers(-1, 2, size=(n, m))
        val = rng.integers(-1, 2, size=(max(2, n // 5), m))
        cfg = TrainConfig(
            learning_rate=0.05, max_epochs=8, patience=3, alpha_init=0.8, seed=trial
        )
        uniform = build_uniform_priors(m)
        map_res = fit(votes, val, uniform, cfg)
        mle_res = fit(votes, val, None, cfg)
        rows = VoteRows.of(votes, np.full((n, 2), 0.5))
        map_acc, map_cov = map_res.params.accuracy, map_res.params.coverage
        mle_acc, mle_cov = mle_res.params.accuracy, mle_res.params.coverage
        obj_map = log_objective(rows, map_acc, map_cov, uniform.accuracy_prior)
        obj_mle = log_objective(rows, mle_acc, mle_cov)
        odds = ref.prior_odds(rows)
        g_map = grad_accuracy(rows, odds, map_acc, map_cov, uniform.accuracy_prior, 1.0)
        g_mle = grad_accuracy(rows, odds, mle_acc, mle_cov, None, 1.0)
        p_map = predict(votes, map_res.params, uniform.label_prior)
        p_mle = predict(votes, mle_res.params, LabelPrior())
        same = (
            np.array_equal(map_res.params.accuracy, mle_res.params.accuracy)
            and np.array_equal(map_res.params.coverage, mle_res.params.coverage)
            and map_res.train_loss_history == mle_res.train_loss_history
            and map_res.val_loss_history == mle_res.val_loss_history
            and obj_map == obj_mle
            and np.array_equal(g_map, g_mle)
            and np.array_equal(p_map.labels, p_mle.labels)
            and np.array_equal(p_map.score_pos, p_mle.score_pos)
        )
        identical += same
    elapsed = time.time() - start
    verdict(
        2,
        identical == 20 and elapsed < 30.0,
        f"uniform-prior MAP bitwise equals MLE on {identical}/20 instances, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_strong_prior_recapitulation():
    rng = np.random.default_rng(3003)
    strong = LabelPrior(p=1 - 1e-9, force_abstain=True)
    matches = 0
    for _ in range(20):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, 7))
        votes = rng.integers(-1, 2, size=(n, m))
        votes[0] = 0  # all-abstain row
        if m >= 2:  # guaranteed tie row
            votes[1] = 0
            votes[1, 0], votes[1, 1] = 1, -1
        params = ModelParams(rng.uniform(0.1, 0.9, m), rng.uniform(0.1, 0.9, m))
        preds = predict(votes, params, strong)
        matches += np.array_equal(preds.labels, majority_vote(votes))
    verdict(
        3,
        matches == 20,
        f"p=1-1e-9 with forced abstention reproduces majority vote on {matches}/20 matrices",
    )


TRUE_ACCURACY = (0.9, 0.8, 0.7, 0.85, 0.6)


def _recovery_dataset():
    return generate_synthetic(
        SyntheticSpec(m=5, n=20000, accuracy=TRUE_ACCURACY, coverage=0.5,
                      class_balance=0.5, seed=11)
    )


def test_criterion_04_parameter_recovery():
    start = time.time()
    data = _recovery_dataset()
    cfg = TrainConfig(learning_rate=0.05, max_epochs=150, alpha_init=0.9, seed=3)
    result = fit(data.votes, None, None, cfg)
    acc_err = float(np.abs(result.params.accuracy - np.array(TRUE_ACCURACY)).max())
    cov_err = float(np.abs(ref.coverage(data.votes) - 0.5).max())
    elapsed = time.time() - start
    verdict(
        4,
        acc_err < 0.05 and cov_err < 0.02 and elapsed < 60.0,
        f"MLE recovery: |alpha_hat - alpha|_inf = {acc_err:.4f} (< 0.05), "
        f"coverage err {cov_err:.4f} (< 0.02), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_strong_prior_pinning():
    data = _recovery_dataset()
    rng = np.random.default_rng(42)
    means = rng.uniform(0.2, 0.8, 5)
    prior = build_user_priors(1e6 * means, 1e6 * (1.0 - means))
    cfg = TrainConfig(learning_rate=0.002, max_epochs=100, alpha_init=0.5, seed=3)
    result = fit(data.votes, None, prior, cfg)
    err = float(np.abs(result.params.accuracy - means).max())
    verdict(5, err < 0.01, f"s=1e6 pins alpha_hat to prior means: |err|_inf = {err:.5f} (< 0.01)")


def test_criterion_06_prior_quality_ordering():
    ordering_ok = 0
    learning_ok = 0
    for seed in range(5):
        data = generate_synthetic(
            SyntheticSpec(m=5, n=5000, accuracy=TRUE_ACCURACY, coverage=0.5,
                          class_balance=0.5, seed=100 + seed)
        )
        study = prior_quality_study(
            data,
            strength=100.0,
            split_spec=SplitSpec(seed=seed),
            config=TrainConfig(learning_rate=0.05, max_epochs=100, alpha_init=0.9, seed=seed),
        )
        ordering_ok += study["map-emp"]["alpha_l2"] <= study["map-mv"]["alpha_l2"]
        learning_ok += study["map-mv"]["alpha_l2"] < study["map-mv"]["prior_l2"]
    verdict(
        6,
        ordering_ok == 5 and learning_ok == 5,
        f"alpha distance: empirical <= mv priors on {ordering_ok}/5 datasets; "
        f"training shrinks mv prior distance on {learning_ok}/5",
    )


def test_criterion_07_metrics_fidelity():
    out = metrics_from_confusion(150, 1, 19, 125)
    rendered = {name: format_percent(out[name]) for name in ("f1", "accuracy", "precision", "recall")}
    expected = {"f1": "92.59", "accuracy": "93.22", "precision": "99.21", "recall": "86.81"}
    verdict(7, rendered == expected, f"confusion (150,1,19,125) renders {rendered}")


def test_criterion_08_low_data_variance():
    start = time.time()
    data = generate_synthetic(
        SyntheticSpec(m=6, n=3500, accuracy=(0.95, 0.85, 0.75, 0.65, 0.55, 0.9),
                      coverage=(0.9, 0.5, 0.3, 0.7, 0.1, 0.6), class_balance=0.5, seed=77)
    )
    rows = low_data_sweep(
        data, [10, 100, 2000], 5, modes=("map-mv", "mle"),
        split_spec=SplitSpec(seed=5),
        config=TrainConfig(learning_rate=0.1, max_epochs=300, patience=10**9,
                           alpha_init=0.9, seed=5),
        strength=10.0, p=0.9, force_abstain=True,
    )
    agg = collect_aggregates(rows)
    std_map = agg[("map-mv", 10, "f1", "std")]
    std_mle = agg[("mle", 10, "f1", "std")]
    gap = abs(agg[("map-mv", 2000, "f1", "mean")] - agg[("mle", 2000, "f1", "mean")])
    elapsed = time.time() - start
    verdict(
        8,
        std_map <= std_mle and gap < 0.02 and elapsed < 300.0,
        f"n=10 F1 std: map {std_map:.4f} <= mle {std_mle:.4f}; n=2000 mean gap "
        f"{gap:.4f} (< 0.02); {elapsed:.0f}s (< 300s)",
    )


REFERENCE_ENV = "LABELFORGE_REFERENCE_DATASET"


def test_criterion_09_optional_reference_dataset():
    """Only runs when the three-LF literature-screening benchmark with known
    LF statistics is supplied locally via the environment variable."""
    path = os.environ.get(REFERENCE_ENV)
    if not path or not os.path.exists(path):
        print(f"[SKIP] criterion 9: optional dataset check ({REFERENCE_ENV} not set)")
        pytest.skip(f"{REFERENCE_ENV} not set; reference-dataset check is optional")
    data = read_dataset(path)
    assert data.truth is not None, "dataset file must include ground truth"
    cov = np.round(ref.coverage(data.votes), 2)
    acc = np.round(reference_accuracies(data.votes, data.truth), 2)
    stats_ok = (np.abs(cov - np.array([0.05, 1.00, 0.37])) <= 0.01).all() and (
        np.abs(acc - np.array([1.00, 0.68, 1.00])) <= 0.01
    ).all()

    train, val, test = split(data, SplitSpec(seed=0))
    map_prior = build_mv_priors(train.votes, 10.0, p=0.5, force_abstain=True)
    map_fit = fit(train.votes, val.votes,
                  map_prior, TrainConfig(learning_rate=0.01, max_epochs=100, alpha_init=1.0, seed=0))
    mle_fit = fit(train.votes, val.votes, None,
                  TrainConfig(learning_rate=0.001, max_epochs=100, alpha_init=0.8, seed=0))
    f1_map = score(predict(test.votes, map_fit.params, map_prior.label_prior), test.truth).f1
    f1_mle = score(predict(test.votes, mle_fit.params, LabelPrior()), test.truth).f1
    f1_mv = score(majority_vote_predictions(test.votes), test.truth).f1
    meets = f1_map >= f1_mv and f1_map >= f1_mle
    verdict(
        9,
        stats_ok and meets,
        f"published-dataset stats {'ok' if stats_ok else 'MISMATCH'} "
        f"(coverage {cov.tolist()}, accuracy {acc.tolist()}); "
        f"map F1 {f1_map:.4f} vs mv {f1_mv:.4f} / mle {f1_mle:.4f}",
    )


def test_criterion_10_roundtrip_and_determinism(tmp_path, monkeypatch):
    data = generate_synthetic(
        SyntheticSpec(m=4, n=150, accuracy=(0.9, 0.8, 0.7, 0.6), coverage=0.6, seed=8)
    )
    csv_path = tmp_path / "data.csv"
    write_dataset(csv_path, data)
    back = read_dataset(csv_path)
    dataset_ok = np.array_equal(back.votes, data.votes) and np.array_equal(back.truth, data.truth)

    prior = build_mv_priors(data.votes, 10.0, p=0.7, force_abstain=True)
    result = fit(data.votes, None, prior, TrainConfig(learning_rate=0.05, max_epochs=10, seed=1))
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(m1, model_file_from_fit(result.params, prior, "digest"))
    save_model(m2, load_model(m1))
    model_ok = m1.read_bytes() == m2.read_bytes()

    # identical argv, run twice from separate working directories
    outputs = []
    for tag in ("x", "y"):
        workdir = tmp_path / f"run_{tag}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["synth", "--m", "3", "--n", "80", "--alpha", "0.9,0.7,0.6",
                         "--beta", "0.6", "--seed", "12", "--out", "synth.csv"]) == 0
        assert cli_main(["train", "--data", "synth.csv", "--mode", "map-mv", "--epochs", "5",
                         "--seed", "12", "--out", "model.txt"]) == 0
        assert cli_main(["predict", "--model", "model.txt", "--data", "synth.csv",
                         "--out", "preds.csv"]) == 0
        outputs.append(tuple((workdir / name).read_bytes()
                             for name in ("synth.csv", "model.txt", "preds.csv")))
    cli_ok = outputs[0] == outputs[1]

    verdict(
        10,
        dataset_ok and model_ok and cli_ok,
        f"dataset roundtrip {'ok' if dataset_ok else 'FAIL'}, model file byte-stable "
        f"{'ok' if model_ok else 'FAIL'}, repeated CLI runs byte-identical "
        f"{'ok' if cli_ok else 'FAIL'}",
    )
