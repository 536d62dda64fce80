"""Property tests of the log-joint kernel.

The kernel's class log-likelihoods, the objective and the accuracy gradient
are checked against the linear-space row reference in ``kernel_reference``;
then the symmetries of the model: negating every vote and swapping each
prior pair swaps the posterior, permuting LF columns permutes the gradient,
and one epoch of minibatch gradients sums to the full-batch gradient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from labelforge import BetaPrior, LabelPrior, ModelParams, predict
from labelforge.model import (
    VoteRows,
    label_prior_pairs,
    log_likelihoods,
    log_objective,
    posterior_log_odds,
)
from labelforge.priors import majority_vote
from labelforge.train import grad_accuracy

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# The reference sums the same terms in another order; both are float64.
RTOL = 1e-10
GRAD_ATOL = 1e-9


class Case:
    """A random matrix with parameters, an accuracy prior and MV-anchored pairs."""

    def __init__(self, seed: int, n: int, m: int, p: float, boundary: bool = False):
        rng = np.random.default_rng(seed)
        self.votes = rng.integers(-1, 2, size=(n, m)).astype(np.int8)
        self.acc = rng.uniform(0.05, 0.95, m)
        self.cov = rng.uniform(0.05, 0.95, m)
        if boundary:
            # parameters a model file can hold: exactly 0 or 1
            self.acc[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
            self.cov[rng.random(m) < 0.3] = rng.choice([0.0, 1.0])
        self.prior = BetaPrior(rng.uniform(0.5, 20.0, m), rng.uniform(0.5, 20.0, m))
        self.pairs = label_prior_pairs(majority_vote(self.votes), p)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.acc, self.cov)

    def rows(self) -> VoteRows:
        return VoteRows.of(self.votes, self.pairs)


def cases(boundary=st.just(False)):
    return st.builds(
        Case,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        m=st.integers(1, 6),
        p=st.floats(0.5, 0.99),
        boundary=boundary,
    )


@PROPERTY
@given(cases(st.booleans()))
def test_kernel_equals_row_reference(case):
    ll = log_likelihoods(case.rows(), case.acc, case.cov)
    expected = np.array(
        [[ref.class_joint(row, label, case.acc, case.cov) for label in (1, -1)]
         for row in case.votes]
    )
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(ll, np.log(expected), rtol=RTOL)


@PROPERTY
@given(cases())
def test_objective_equals_row_reference(case):
    value = log_objective(case.rows(), case.acc, case.cov, case.prior)
    expected = ref.objective(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(value, expected, rtol=RTOL)


@PROPERTY
@given(cases())
def test_gradient_equals_row_reference(case):
    grad = grad_accuracy(case.rows(), case.acc, case.cov, case.prior, 1.0)
    expected = ref.grad_accuracy(case.votes, case.acc, case.cov, case.pairs, case.prior)
    np.testing.assert_allclose(grad, expected, rtol=RTOL, atol=GRAD_ATOL)


@PROPERTY
@given(cases(st.booleans()))
def test_flipping_votes_and_swapping_priors_swaps_posterior(case):
    flipped = VoteRows.of(-case.votes, case.pairs[:, ::-1])
    ll = log_likelihoods(case.rows(), case.acc, case.cov)
    np.testing.assert_array_equal(log_likelihoods(flipped, case.acc, case.cov), ll[:, ::-1])

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
    grad = grad_accuracy(case.rows(), case.acc, case.cov, case.prior, 1.0)
    permuted = grad_accuracy(
        VoteRows.of(case.votes[:, perm], case.pairs),
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
        total += grad_accuracy(batch, case.acc, case.cov, case.prior, batch.n / n)
    full = grad_accuracy(rows, case.acc, case.cov, case.prior, 1.0)
    np.testing.assert_allclose(total, full, rtol=RTOL, atol=GRAD_ATOL)
