"""Property tests of the log-joint kernel.

The kernel's posterior log-odds (parameters at 0 or 1 included), the
objective and the accuracy gradient are checked against the linear-space
row reference in ``kernel_reference``, for grouped and ungrouped rows,
and p = 1, whose class priors are -inf. Rows are anchored to their own
majority votes, or, on the ungrouped path, to anchors of the caller's
choosing, so any pair of class priors is covered. Then the symmetries of
the model: negating every vote (and so every anchor) swaps the posterior
and keeps the objective, permuting LF columns permutes the gradient and
the fitted parameters, one epoch of minibatch gradients sums to the
full-batch gradient, and predictions do not depend on coverage. Then the
vote-pattern path (distinct rows weighted by their counts), at widths on
both sides of MAX_PATTERN_LFS, is checked against the row path of
``kernel_reference.ungrouped``: the objective, the accuracy gradient, the
coverage MAP, whole fits and predictions; the hashed key of wide rows is
checked to group narrow rows as the int64 key does, and ``group_rows`` to
partition votes and prediction columns as np.unique does, also when every
row hashes alike. Last, the factored objective, which takes the
label-free part of every row out of the log-sum-exp, is checked against
the reference's sum of per-row log marginals.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from labelforge import LabelPrior, ModelParams, TrainConfig, fit, model, predict
from labelforge.infer import predict_grouped
from labelforge.model import (
    MAX_PATTERN_LFS,
    BetaPrior,
    VoteRows,
    class_prior_table,
    coverage_objectives,
    log_objectives,
    posterior_log_odds,
)
from labelforge.priors import beta_from_mean, build_mv_priors, majority_vote
from labelforge.train import beta_map, grad_accuracy

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# The reference sums the same terms in another order; both are float64.
RTOL = 1e-10
GRAD_ATOL = 1e-9


class Case:
    """A random matrix with parameters, an accuracy prior and a label prior
    ``p`` anchored to the majority vote, or to caller-supplied ``anchors``
    drawn independently of the votes, which only ungrouped rows can carry
    (:func:`kernel_reference.anchored_rows`). ``row_anchors`` holds the
    anchors in use and ``pairs`` the rows' class priors from the
    reference. With ``copies``, the rows are drawn from the first quarter
    of them, so that wide rows repeat too. With ``boundary``, some
    parameters are set to exactly 0 or 1; ``interior_cov`` keeps the
    coverages drawn before that."""

    def __init__(
        self,
        seed: int,
        n: int,
        m: int,
        p: float,
        boundary: bool = False,
        own_anchors=False,
        copies=False,
    ):
        rng = np.random.default_rng(seed)
        self.votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        if copies:
            self.votes = self.votes[rng.integers(0, max(1, n // 4), n)]
        self.acc = rng.uniform(0.05, 0.95, m)
        self.cov = rng.uniform(0.05, 0.95, m)
        self.interior_cov = self.cov.copy()
        if boundary:
            # parameters a model file can hold: exactly 0 or 1
            self.acc[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
            self.cov[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
        self.prior = BetaPrior(rng.uniform(0.5, 20.0, m), rng.uniform(0.5, 20.0, m))
        self.p = p
        self.anchors = rng.integers(-1, 2, n).astype(np.int8) if own_anchors else None
        self.row_anchors = majority_vote(self.votes) if self.anchors is None else self.anchors
        self.pairs = ref.pairs(self.row_anchors, p)
        self.table = class_prior_table(p)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.acc, self.cov)

    def rows(self) -> VoteRows:
        if self.anchors is None:
            return VoteRows.of(self.votes)
        return ref.anchored_rows(self.votes, self.anchors)

    def patterns(self) -> VoteRows:
        return self.both_paths(True)[0]

    def both_paths(self, grouped: bool) -> tuple[VoteRows, np.ndarray]:
        """The converted rows, grouped or not, and the index that maps each
        input row to its converted row."""
        if grouped:
            assert self.anchors is None, "patterns are anchored to their own majority votes"
            return VoteRows.grouped(self.votes)
        return self.rows(), np.arange(self.votes.shape[0])


def cases(
    boundary=st.just(False),
    n=st.integers(1, 30),
    m=st.integers(1, 6),
    own_anchors=st.just(False),
    p=st.floats(0.5, 0.99),
    copies=st.just(False),
):
    return st.builds(
        Case,
        seed=st.integers(0, 2**32 - 1),
        n=n,
        m=m,
        p=p,
        boundary=boundary,
        own_anchors=own_anchors,
        copies=copies,
    )


def cases_and_paths(**kwargs):
    """(case, grouped) pairs. Grouped rows are anchored to their own majority
    votes, so caller-chosen anchors are drawn on the ungrouped path only."""
    return st.booleans().flatmap(
        lambda grouped: st.tuples(
            cases(own_anchors=st.just(False) if grouped else st.booleans(), **kwargs),
            st.just(grouped),
        )
    )


# p = 1 puts all prior mass on the anchor's label: a class prior of -inf.
certain_or_not = st.one_of(st.just(1.0), st.floats(0.5, 0.99))


# Few LFs, one int64 key, or more than MAX_PATTERN_LFS, keys hashed into one.
pattern_widths = st.one_of(
    st.integers(1, 4), st.integers(MAX_PATTERN_LFS + 1, MAX_PATTERN_LFS + 8)
)
# Up to 80 rows, often drawn from a few, so that most rows share their pattern.
pattern_cases = cases(n=st.integers(1, 80), m=pattern_widths, copies=st.booleans())


def row_path():
    """Context in which no matrix is grouped, so the kernel's callers run
    over the rows themselves, each with unit weight."""
    return mock.patch.object(VoteRows, "grouped", staticmethod(ref.ungrouped))


def byte_key():
    """Context in which every column is a run of its own, so every matrix of
    more than one LF is grouped by the hash of its columns."""
    return mock.patch.object(model, "MAX_PATTERN_LFS", 1)


@PROPERTY
@given(cases_and_paths(boundary=st.booleans(), p=certain_or_not))
def test_kernel_equals_row_reference(drawn):
    case, grouped = drawn
    rows, inverse = case.both_paths(grouped)
    odds, degenerate = posterior_log_odds(rows, case.table, case.acc)
    odds, degenerate = odds[inverse], degenerate[inverse]
    # coverage cancels from the posterior, so the reference may take the
    # interior coverages drawn before the boundary ones replaced them
    joints = np.array(
        [[ref.class_joint(row, label, case.acc, case.interior_cov, prior)
          for label, prior in zip((1, -1), pair)]
         for row, pair in zip(case.votes, case.pairs)]
    )
    impossible = joints == 0.0
    np.testing.assert_array_equal(degenerate, impossible.all(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, -inf - -inf
        log_joints = np.log(joints)
        expected = np.where(degenerate, 0.0, log_joints[:, 0] - log_joints[:, 1])
    np.testing.assert_allclose(odds, expected, rtol=RTOL, atol=GRAD_ATOL)

    # predict_grouped reads the same anchors from the rows, and the
    # coverages at 0 or 1 do not reach it
    preds = predict_grouped((rows, inverse), case.params, LabelPrior(case.p))
    live = ~degenerate
    with np.errstate(invalid="ignore"):  # 0 / 0 on degenerate rows
        score = joints[:, 0] / joints.sum(axis=1)
    np.testing.assert_allclose(preds.score_pos[live], score[live], rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(preds.abstain_reason[degenerate], "degenerate")


@PROPERTY
@given(cases_and_paths(p=certain_or_not))
def test_objective_equals_row_reference(drawn):
    case, grouped = drawn
    rows, _ = case.both_paths(grouped)
    value = ref.log_objective(rows, case.p, case.acc, case.cov, case.prior)
    expected = ref.objective(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(value, expected, rtol=RTOL)


@PROPERTY
@given(cases())
def test_gradient_equals_row_reference(case):
    rows = case.rows()
    grad = grad_accuracy(rows, case.table, case.acc, case.prior, 1.0)
    expected = ref.grad_accuracy(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(grad, expected, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(cases(st.booleans()))
def test_flipping_votes_and_swapping_priors_swaps_posterior(case):
    # negating a row's votes negates its majority-vote anchor, which swaps
    # its pair of class priors
    flipped = VoteRows.of(-case.votes)
    np.testing.assert_array_equal(flipped.anchor, -case.row_anchors)
    assert ref.log_objective(flipped, case.p, case.acc, case.cov) == ref.log_objective(
        case.rows(), case.p, case.acc, case.cov
    )

    odds, degenerate = posterior_log_odds(case.rows(), case.table, case.acc)
    odds_flip, degenerate_flip = posterior_log_odds(flipped, case.table, case.acc)
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
    grad = grad_accuracy(case.rows(), case.table, case.acc, case.prior, 1.0)
    permuted = grad_accuracy(
        VoteRows.of(case.votes[:, perm]),
        case.table,
        case.acc[perm],
        BetaPrior(case.prior.u[perm], case.prior.v[perm]),
        1.0,
    )
    np.testing.assert_allclose(permuted, grad[perm], rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(pattern_cases, st.sampled_from([None, 7]), st.randoms(use_true_random=False))
def test_permuting_columns_permutes_the_fit(case, batch_size, random):
    # the patterns of the permuted matrix come in another order, which moves
    # the fit by rounding only
    m = case.votes.shape[1]
    perm = np.array(random.sample(range(m), m))
    config = TrainConfig(
        learning_rate=0.05, max_epochs=5, patience=5, batch_size=batch_size, alpha_init=0.7
    )
    label_prior = LabelPrior(case.p)
    fits, preds = [], []
    for votes in (case.votes, case.votes[:, perm]):
        fits.append(fit(votes, None, build_mv_priors(votes, 10.0, case.p), config).params)
        preds.append(predict(votes, fits[-1], label_prior))
    for field in ("accuracy", "coverage"):
        np.testing.assert_allclose(
            getattr(fits[1], field), getattr(fits[0], field)[perm], rtol=RTOL
        )
    np.testing.assert_array_equal(preds[1].labels, preds[0].labels)
    np.testing.assert_array_equal(preds[1].abstain_reason, preds[0].abstain_reason)
    np.testing.assert_allclose(preds[1].score_pos, preds[0].score_pos, rtol=RTOL)


@PROPERTY
@given(cases(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_epoch_of_minibatch_gradients_sums_to_full_batch(case, batch_size, seed):
    rows = case.rows()
    n = rows.n
    order = np.random.default_rng(seed).permutation(n)
    total = np.zeros(case.votes.shape[1])
    for start in range(0, n, batch_size):
        batch = ref.batch_rows(rows, order[start : start + batch_size])
        total += grad_accuracy(batch, case.table, case.acc, case.prior, batch.n / n)
    full = grad_accuracy(rows, case.table, case.acc, case.prior, 1.0)
    np.testing.assert_allclose(total, full, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(pattern_cases)
def test_patterns_rebuild_the_rows(case):
    rows, inverse = VoteRows.grouped(case.votes)
    np.testing.assert_array_equal(rows.d[inverse], case.votes)
    np.testing.assert_array_equal(rows.anchor[inverse], case.row_anchors)
    assert rows.anchor.dtype == np.int8
    np.testing.assert_array_equal(rows.w, np.bincount(inverse))
    assert rows.total == case.votes.shape[0]
    np.testing.assert_array_equal(rows.count, np.abs(case.votes).sum(axis=0))
    assert len({tuple(row) for row in rows.d.tolist()}) == rows.n


@PROPERTY
@given(cases(n=st.integers(1, 80), m=st.integers(1, MAX_PATTERN_LFS), copies=st.booleans()))
def test_byte_key_groups_like_int64_key(case):
    # the same partition of the rows, with the patterns in another order
    by_code, code_inverse = VoteRows.grouped(case.votes)
    with byte_key():
        by_bytes, bytes_inverse = VoteRows.grouped(case.votes)
    assert by_bytes.n == by_code.n
    np.testing.assert_array_equal(by_bytes.d[bytes_inverse], case.votes)
    np.testing.assert_array_equal(by_bytes.w[bytes_inverse], by_code.w[code_inverse])
    np.testing.assert_array_equal(by_bytes.anchor[bytes_inverse], by_code.anchor[code_inverse])
    order = np.lexsort(by_bytes.d.T[::-1])  # the int64 key sorts by column 0 first
    np.testing.assert_array_equal(by_bytes.d[order], by_code.d)


def same_partition(inverse: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``inverse`` groups the rows of ``values`` as np.unique does:
    one group per distinct row, and each group's rows all alike."""
    unique_inverse = np.unique(values, axis=0, return_inverse=True)[1].reshape(-1)
    groups = inverse.max() + 1
    pairs = np.unique(np.stack([inverse, unique_inverse], axis=1), axis=0)
    return groups == unique_inverse.max() + 1 == pairs.shape[0]


# Widths on both sides of one and of two runs of MAX_PATTERN_LFS columns.
run_widths = st.sampled_from(
    [1, 2, 10] + [k * MAX_PATTERN_LFS + d for k in (1, 2) for d in (-1, 0, 1, 2)]
)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    m=run_widths,
    coverage=st.sampled_from([0.03, 0.5, 1.0]),
    copies=st.booleans(),
    collide=st.booleans(),
)
def test_group_rows_partitions_votes_as_unique(seed, n, m, coverage, copies, collide):
    # sparse, dense and wide votes; with collide, every row hashes alike
    rng = np.random.default_rng(seed)
    votes = (rng.random((n, m)) < coverage) * rng.choice(np.array([-1, 1], dtype=np.int8), (n, m))
    if copies:
        votes = votes[rng.integers(0, max(1, n // 4), n)]
    votes = votes.astype(np.int8)
    with mock.patch.object(model, "_mix", np.zeros_like) if collide else nullcontext():
        rows, inverse = VoteRows.grouped(votes)
        first, by_columns = model.group_rows(*votes.T)
    assert same_partition(inverse, votes) and rows.n == inverse.max() + 1
    np.testing.assert_array_equal(rows.d[inverse], votes)
    assert same_partition(by_columns, votes)
    np.testing.assert_array_equal(votes[first][by_columns], votes)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), collide=st.booleans())
def test_group_rows_partitions_prediction_columns_as_unique(seed, n, collide):
    # the columns write_predictions groups: score bits, label, reason words
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.array([0.0, -0.0, 0.5, 0.25, 1.0, 1e-300]), n)
    labels = rng.integers(-1, 2, n).astype(np.int8)
    reasons = rng.choice(np.array(["", "tie", "forced", "degenerate"], dtype="<U10"), n)
    columns = [scores.view(np.uint64), labels, *reasons.view(np.uint64).reshape(n, 5).T]
    with mock.patch.object(model, "_mix", np.zeros_like) if collide else nullcontext():
        first, inverse = model.group_rows(*columns)
    values = np.stack([col.astype(np.uint64) for col in columns], axis=1)
    assert same_partition(inverse, values)
    np.testing.assert_array_equal(values[first][inverse], values)


@PROPERTY
@given(pattern_cases)
def test_pattern_objective_and_gradients_equal_row_path(case):
    rows, patterns = case.rows(), case.patterns()
    cov_prior = BetaPrior(*beta_from_mean(case.cov, 10.0))
    # no accuracy prior: the gradient takes the uniform one, of gradient 0
    uniform = BetaPrior(np.ones(case.acc.size), np.ones(case.acc.size))
    for prior, weight in ((None, 1.0), (case.prior, 0.3)):
        np.testing.assert_allclose(
            ref.log_objective(patterns, case.p, case.acc, case.cov, prior, cov_prior),
            ref.log_objective(rows, case.p, case.acc, case.cov, prior, cov_prior),
            rtol=RTOL,
        )
        np.testing.assert_allclose(
            grad_accuracy(patterns, case.table, case.acc, prior or uniform, weight),
            grad_accuracy(rows, case.table, case.acc, prior or uniform, weight),
            rtol=RTOL,
            atol=GRAD_ATOL,
        )
    np.testing.assert_array_equal(
        beta_map(patterns.count, patterns.total - patterns.count, cov_prior),
        beta_map(rows.count, rows.total - rows.count, cov_prior),
    )


@PROPERTY
@given(
    pattern_cases,
    st.sampled_from([None, 7, 1000]),
    st.booleans(),
    st.floats(0.001, 0.2),
)
def test_pattern_fit_equals_row_path(case, batch_size, with_val, lr):
    prior = build_mv_priors(case.votes, 10.0, case.p)
    val = case.votes[::-1][: max(1, case.votes.shape[0] // 3)] if with_val else None
    config = TrainConfig(
        learning_rate=lr, max_epochs=5, patience=5, batch_size=batch_size, alpha_init=0.7
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
@given(
    cases(st.booleans(), n=st.integers(1, 80), m=pattern_widths, copies=st.booleans()),
    st.booleans(),
)
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


@PROPERTY
@given(
    cases(st.booleans(), n=st.integers(1, 80), m=pattern_widths, copies=st.booleans()),
    st.booleans(),
    st.data(),
)
def test_predictions_ignore_coverage(case, force_abstain, data):
    # coverage is the same under both labels, so any two coverage vectors,
    # entries at exactly 0 or 1 included, label the rows bit for bit alike
    m = case.votes.shape[1]
    entries = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    vectors = st.lists(entries, min_size=m, max_size=m)
    label_prior = LabelPrior(case.p, force_abstain=force_abstain)
    first, second = (
        predict(case.votes, ModelParams(case.acc, data.draw(vectors)), label_prior)
        for _ in range(2)
    )
    np.testing.assert_array_equal(first.labels, second.labels)
    np.testing.assert_array_equal(first.score_pos, second.score_pos)
    np.testing.assert_array_equal(first.abstain_reason, second.abstain_reason)


def test_widest_grouped_matrix_next_to_row_path():
    # matrices of up to 38 LFs are keyed by int64, wider ones by bytes; both
    # are grouped
    rng = np.random.default_rng(38)
    for m in (38, 39):
        votes = rng.integers(-1, 2, size=(40, m)).astype(np.int8)
        # the largest and smallest keys, and duplicates
        votes[:2] = [[1] * m, [-1] * m]
        votes[20:] = votes[:20]
        rows, inverse = VoteRows.grouped(votes)
        assert rows.n == 20
        np.testing.assert_array_equal(rows.d[inverse], votes)
        np.testing.assert_array_equal(rows.w, 2.0)
        np.testing.assert_array_equal(rows.anchor, majority_vote(rows.d))
        plain = VoteRows.of(votes)
        acc, cov = rng.uniform(0.55, 0.95, m), ref.coverage(votes)
        np.testing.assert_allclose(
            ref.log_objective(rows, 0.8, acc, cov),
            ref.log_objective(plain, 0.8, acc, cov),
            rtol=RTOL,
        )
        table, uniform = class_prior_table(0.8), BetaPrior(np.ones(m), np.ones(m))
        np.testing.assert_allclose(
            grad_accuracy(rows, table, acc, uniform, 1.0),
            grad_accuracy(plain, table, acc, uniform, 1.0),
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
    |d| @ g of all rows as g @ count, and coverage_objectives adds the
    coverage half count @ log b + (total - count) @ log(1 - b). The
    reference sums each input row's log marginal, one row and one factor at
    a time. For K
    stacked cells, unit or pattern weights (at widths on both sides of
    MAX_PATTERN_LFS, with repeated rows), and p = 1, whose class priors are
    -inf; VoteRows.count runs over row blocks of any size."""
    rng = np.random.default_rng(seed)
    votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
    votes[rng.random(n) < 0.3] = votes[0]  # repeated patterns
    k = len(ps)
    acc, cov = rng.uniform(0.05, 0.95, (k, m)), rng.uniform(0.05, 0.95, (k, m))
    prior = BetaPrior(rng.uniform(0.5, 20.0, (k, m)), rng.uniform(0.5, 20.0, (k, m)))
    with mock.patch.object(model, "_COUNT_BLOCK", block):
        rows = VoteRows.grouped(votes)[0] if grouped else VoteRows.of(votes)
        count = rows.count
    assert rows.total == n
    np.testing.assert_array_equal(count, rows.w @ np.abs(rows.d))
    table = class_prior_table(ps)  # p = 1 gives log 0 = -inf

    value = log_objectives(rows, table, acc, prior) + coverage_objectives(rows, cov)
    row_anchors = majority_vote(votes)
    per_row = np.array([
        ref.objective(votes, acc[cell], cov[cell], ref.pairs(row_anchors, p))
        for cell, p in enumerate(ps)
    ])
    expected = per_row + prior.log_density(acc).sum(axis=-1)
    assert value.shape == (k,) and np.isfinite(value).all()
    np.testing.assert_allclose(value, expected, rtol=1e-12)
    for cell in range(k):  # each cell alone, as m-vectors and its (3,) table
        np.testing.assert_allclose(
            log_objectives(rows, table[:, cell], acc[cell])
            + coverage_objectives(rows, cov[cell]),
            per_row[cell],
            rtol=1e-12,
        )
