"""Property tests of the log-joint kernel.

The kernel's posterior log-odds (parameters at 0 or 1 included), the
objective and the accuracy gradient are checked against the linear-space
row reference in ``kernel_reference``; then the symmetries of the model:
negating every vote and swapping each prior pair swaps the posterior and
keeps the objective, permuting LF columns permutes the gradient, and one
epoch of minibatch gradients sums to the full-batch gradient. Then the
vote-pattern path (distinct rows weighted by their counts) is checked
against the row path: the objective, both gradients, whole fits and
predictions. Last, the factored objective, which takes the label-free part
of every row out of the log-sum-exp, is checked against the reference's
sum of per-row log marginals.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from labelforge import LabelPrior, ModelParams, TrainConfig, fit, model, predict
from labelforge.model import (
    MAX_PATTERN_LFS,
    BetaPrior,
    VoteRows,
    label_prior_pairs,
    log_objective,
    log_objectives,
    posterior_log_odds,
)
from labelforge.priors import beta_from_mean, build_mv_priors, majority_vote
from labelforge.train import grad_accuracy, grad_coverage

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# The reference sums the same terms in another order; both are float64.
RTOL = 1e-10
GRAD_ATOL = 1e-9


class Case:
    """A random matrix with parameters, an accuracy prior and prior pairs
    anchored to the majority vote, or to caller-supplied ``anchors`` drawn
    independently of the votes."""

    def __init__(
        self, seed: int, n: int, m: int, p: float, boundary: bool = False, own_anchors=False
    ):
        rng = np.random.default_rng(seed)
        self.votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        self.acc = rng.uniform(0.05, 0.95, m)
        self.cov = rng.uniform(0.05, 0.95, m)
        if boundary:
            # parameters a model file can hold: exactly 0 or 1
            self.acc[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
            self.cov[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
        self.prior = BetaPrior(rng.uniform(0.5, 20.0, m), rng.uniform(0.5, 20.0, m))
        self.p = p
        self.anchors = rng.integers(-1, 2, n).astype(np.int8) if own_anchors else None
        mv = majority_vote(self.votes) if self.anchors is None else self.anchors
        self.pairs = label_prior_pairs(mv, p)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.acc, self.cov)

    def rows(self) -> VoteRows:
        return VoteRows.of(self.votes, self.pairs)

    def patterns(self) -> VoteRows:
        return VoteRows.grouped(self.votes, self.p, self.anchors)[0]


def cases(
    boundary=st.just(False), n=st.integers(1, 30), m=st.integers(1, 6), own_anchors=st.just(False)
):
    return st.builds(
        Case,
        seed=st.integers(0, 2**32 - 1),
        n=n,
        m=m,
        p=st.floats(0.5, 0.99),
        boundary=boundary,
        own_anchors=own_anchors,
    )


# Few LFs and up to 80 rows, so that most rows share their pattern.
pattern_cases = cases(n=st.integers(1, 80), m=st.integers(1, 4), own_anchors=st.booleans())


def row_path():
    """Context in which every matrix is too wide to group, so the kernel's
    callers run over the rows themselves."""
    return mock.patch.object(model, "MAX_PATTERN_LFS", 0)


@PROPERTY
@given(cases(st.booleans()))
def test_kernel_equals_row_reference(case):
    odds, degenerate = posterior_log_odds(case.rows(), case.acc, case.cov)
    joints = np.array(
        [[ref.class_joint(row, label, case.acc, case.cov, prior)
          for label, prior in zip((1, -1), pair)]
         for row, pair in zip(case.votes, case.pairs)]
    )
    impossible = joints == 0.0
    np.testing.assert_array_equal(degenerate, impossible.all(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, -inf - -inf
        log_joints = np.log(joints)
        expected = np.where(degenerate, 0.0, log_joints[:, 0] - log_joints[:, 1])
    np.testing.assert_allclose(odds, expected, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(cases())
def test_objective_equals_row_reference(case):
    value = log_objective(case.rows(), case.acc, case.cov, case.prior)
    expected = ref.objective(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(value, expected, rtol=RTOL)


@PROPERTY
@given(cases())
def test_gradient_equals_row_reference(case):
    rows = case.rows()
    grad = grad_accuracy(rows, ref.prior_odds(rows), case.acc, case.cov, case.prior, 1.0)
    expected = ref.grad_accuracy(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(grad, expected, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(cases(st.booleans()))
def test_flipping_votes_and_swapping_priors_swaps_posterior(case):
    flipped = VoteRows.of(-case.votes, case.pairs[:, ::-1])
    assert log_objective(flipped, case.acc, case.cov) == log_objective(
        case.rows(), case.acc, case.cov
    )

    odds, degenerate = posterior_log_odds(case.rows(), case.acc, case.cov)
    odds_flip, degenerate_flip = posterior_log_odds(flipped, case.acc, case.cov)
    np.testing.assert_array_equal(odds_flip, -odds)
    np.testing.assert_array_equal(degenerate_flip, degenerate)

    # predict anchors the pairs to the majority vote, which flips with the votes
    prior = LabelPrior(p=0.7)
    plain = predict(case.votes, case.params, prior)
    flip = predict(-case.votes, case.params, prior)
    np.testing.assert_array_equal(flip.labels, -plain.labels)
    np.testing.assert_array_equal(flip.abstain_reason, plain.abstain_reason)
    live = plain.abstain_reason != "degenerate"
    np.testing.assert_allclose(flip.score_pos[live], 1.0 - plain.score_pos[live], atol=1e-15)


@PROPERTY
@given(cases(), st.randoms(use_true_random=False))
def test_permuting_columns_permutes_gradient(case, random):
    m = case.votes.shape[1]
    perm = np.array(random.sample(range(m), m))
    rows = case.rows()
    grad = grad_accuracy(rows, ref.prior_odds(rows), case.acc, case.cov, case.prior, 1.0)
    permuted = grad_accuracy(
        VoteRows.of(case.votes[:, perm], case.pairs),
        ref.prior_odds(rows),
        case.acc[perm],
        case.cov[perm],
        BetaPrior(case.prior.u[perm], case.prior.v[perm]),
        1.0,
    )
    np.testing.assert_allclose(permuted, grad[perm], rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(cases(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_epoch_of_minibatch_gradients_sums_to_full_batch(case, batch_size, seed):
    rows = case.rows()
    n = rows.n
    order = np.random.default_rng(seed).permutation(n)
    total = np.zeros(case.votes.shape[1])
    for start in range(0, n, batch_size):
        batch = rows.take(order[start : start + batch_size])
        odds = ref.prior_odds(batch)
        total += grad_accuracy(batch, odds, case.acc, case.cov, case.prior, batch.n / n)
    full = grad_accuracy(rows, ref.prior_odds(rows), case.acc, case.cov, case.prior, 1.0)
    np.testing.assert_allclose(total, full, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(pattern_cases)
def test_patterns_rebuild_the_rows(case):
    rows, anchors, inverse = VoteRows.grouped(case.votes, case.p, case.anchors)
    np.testing.assert_array_equal(rows.d[inverse], case.votes)
    expected = majority_vote(case.votes) if case.anchors is None else case.anchors
    np.testing.assert_array_equal(anchors[inverse], expected)
    np.testing.assert_array_equal(rows.log_prior[inverse], np.log(case.pairs))
    np.testing.assert_array_equal(rows.w, np.bincount(inverse))
    assert rows.total == case.votes.shape[0]
    np.testing.assert_array_equal(rows.count, np.abs(case.votes).sum(axis=0))
    distinct = {(tuple(row), a) for row, a in zip(rows.d.tolist(), anchors.tolist())}
    assert len(distinct) == rows.n


@PROPERTY
@given(pattern_cases)
def test_pattern_objective_and_gradients_equal_row_path(case):
    rows, patterns = case.rows(), case.patterns()
    cov_prior = BetaPrior(*beta_from_mean(case.cov, 10.0))
    for prior, weight in ((None, 1.0), (case.prior, 0.3)):
        np.testing.assert_allclose(
            log_objective(patterns, case.acc, case.cov, prior, cov_prior),
            log_objective(rows, case.acc, case.cov, prior, cov_prior),
            rtol=RTOL,
        )
        np.testing.assert_allclose(
            grad_accuracy(patterns, ref.prior_odds(patterns), case.acc, case.cov, prior, weight),
            grad_accuracy(rows, ref.prior_odds(rows), case.acc, case.cov, prior, weight),
            rtol=RTOL,
            atol=GRAD_ATOL,
        )
    np.testing.assert_allclose(
        grad_coverage(patterns, case.cov, cov_prior, 0.3),
        grad_coverage(rows, case.cov, cov_prior, 0.3),
        rtol=RTOL,
    )


@PROPERTY
@given(
    pattern_cases,
    st.sampled_from([None, 7, 1000]),
    st.booleans(),
    st.booleans(),
    st.floats(0.001, 0.2),
)
def test_pattern_fit_equals_row_path(case, batch_size, learn_beta, with_val, lr):
    prior = build_mv_priors(case.votes, 10.0, case.p)
    if case.anchors is not None:
        prior = replace(prior, label_prior=LabelPrior(case.p, mv_votes=case.anchors))
    val = case.votes[::-1][: max(1, case.votes.shape[0] // 3)] if with_val else None
    config = TrainConfig(
        learning_rate=lr, max_epochs=5, patience=5, batch_size=batch_size, alpha_init=0.7,
        learn_beta=learn_beta,
    )
    grouped = fit(case.votes, val, prior, config)
    with row_path():
        rows = fit(case.votes, val, prior, config)
    for field in ("accuracy", "coverage"):
        np.testing.assert_allclose(
            getattr(grouped.params, field), getattr(rows.params, field), rtol=RTOL
        )
    np.testing.assert_allclose(grouped.train_loss_history, rows.train_loss_history, rtol=RTOL)
    np.testing.assert_allclose(grouped.val_loss_history, rows.val_loss_history, rtol=RTOL)
    assert grouped.best_epoch == rows.best_epoch


@PROPERTY
@given(cases(st.booleans(), n=st.integers(1, 80), m=st.integers(1, 4)), st.booleans())
def test_pattern_predict_equals_row_path(case, force_abstain):
    # an all-abstain row and, with equal parameters, a split row are ties
    votes = np.vstack([case.votes, np.zeros(case.votes.shape[1], np.int8)])
    acc, cov = case.acc.copy(), case.cov.copy()
    if votes.shape[1] >= 2:
        acc[1], cov[1] = acc[0], cov[0]
        votes = np.vstack([votes, [[1, -1] + [0] * (votes.shape[1] - 2)]])
    params = ModelParams(acc, cov)
    label_prior = LabelPrior(case.p, force_abstain=force_abstain)
    grouped = predict(votes, params, label_prior)
    with row_path():
        rows = predict(votes, params, label_prior)
    np.testing.assert_array_equal(grouped.labels, rows.labels)
    np.testing.assert_array_equal(grouped.abstain_reason, rows.abstain_reason)
    np.testing.assert_allclose(grouped.score_pos, rows.score_pos, rtol=1e-12)
    # the all-abstain row abstains, whichever the reason
    assert rows.abstain_reason[case.votes.shape[0]] in ("tie", "forced", "degenerate")


def test_widest_grouped_matrix_next_to_row_path():
    # 38 votes and an anchor key below 3^39 < 2^63; 39 would overflow int64
    rng = np.random.default_rng(38)
    for m in (38, 39):
        votes = rng.integers(-1, 2, size=(40, m)).astype(np.int8)
        # the largest and smallest keys, each anchored both ways, and duplicates
        votes[:4] = [[1] * m, [1] * m, [-1] * m, [-1] * m]
        votes[20:] = votes[:20]
        anchors = rng.integers(-1, 2, 40).astype(np.int8)
        anchors[:4] = [1, -1, 1, -1]
        anchors[20:] = anchors[:20]
        rows, _, inverse = VoteRows.grouped(votes, 0.8, anchors)
        if m == 38:
            assert rows.n == 20
            np.testing.assert_array_equal(rows.d[inverse], votes)
            np.testing.assert_array_equal(rows.w, 2.0)
        else:
            assert inverse is None and rows.n == 40
            np.testing.assert_array_equal(rows.w, 1.0)
        plain = VoteRows.of(votes, label_prior_pairs(anchors, 0.8))
        acc, cov = rng.uniform(0.55, 0.95, m), ref.coverage(votes)
        np.testing.assert_allclose(
            log_objective(rows, acc, cov), log_objective(plain, acc, cov), rtol=RTOL
        )
        np.testing.assert_allclose(
            grad_accuracy(rows, ref.prior_odds(rows), acc, cov, None, 1.0),
            grad_accuracy(plain, ref.prior_odds(plain), acc, cov, None, 1.0),
            rtol=RTOL,
            atol=GRAD_ATOL,
        )


@PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.sampled_from([1, 3, 6, MAX_PATTERN_LFS + 1, MAX_PATTERN_LFS + 7]),
    st.lists(st.sampled_from([0.5, 0.7, 0.99, 1.0]), min_size=1, max_size=4),
    st.booleans(),
    st.integers(1, 100),
)
def test_factored_objective_equals_per_row_form(seed, n, m, ps, grouped, block):
    """log_objectives keeps only d @ h per row and adds the label-free
    c + |d| @ g of all rows as total * c + g @ count. The reference sums each
    input row's log marginal, one row and one factor at a time. For K
    stacked cells, unit or pattern weights (wider matrices keep unit
    weights), and p = 1, whose class priors are -inf; VoteRows.count runs
    over row blocks of any size."""
    rng = np.random.default_rng(seed)
    votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
    votes[rng.random(n) < 0.3] = votes[0]  # repeated patterns
    k = len(ps)
    acc, cov = rng.uniform(0.05, 0.95, (k, m)), rng.uniform(0.05, 0.95, (k, m))
    prior = BetaPrior(rng.uniform(0.5, 20.0, (k, m)), rng.uniform(0.5, 20.0, (k, m)))
    with mock.patch.object(model, "_COUNT_BLOCK", block):
        if grouped:
            rows, anchors, _ = VoteRows.grouped(votes, 0.5)
        else:
            rows, anchors = VoteRows.of(votes), majority_vote(votes)
        count = rows.count
    np.testing.assert_array_equal(count, rows.w @ np.abs(rows.d))
    with np.errstate(divide="ignore"):  # p = 1 gives log 0 = -inf
        log_prior = np.stack([np.log(label_prior_pairs(anchors, p)) for p in ps], axis=-1)

    value = log_objectives(rows, log_prior, acc, cov, prior)
    row_anchors = majority_vote(votes)
    per_row = np.array([
        ref.objective(votes, acc[cell], cov[cell], label_prior_pairs(row_anchors, p))
        for cell, p in enumerate(ps)
    ])
    expected = per_row + prior.log_density(acc).sum(axis=-1)
    assert value.shape == (k,) and np.isfinite(value).all()
    np.testing.assert_allclose(value, expected, rtol=1e-12)
    for cell in range(k):  # each cell alone, as m-vectors and (n, 2) log priors
        np.testing.assert_allclose(
            log_objectives(rows, log_prior[..., cell], acc[cell], cov[cell]),
            per_row[cell],
            rtol=1e-12,
        )
