"""Prior construction: majority vote, reference accuracies, beta parameters."""

import numpy as np
import pytest

from labelforge import (
    DataError,
    LabelPrior,
    PriorSpec,
    build_empirical_priors,
    build_mv_priors,
    build_random_priors,
    build_user_priors,
    majority_vote,
)
from labelforge.priors import (
    beta_from_mean,
    build_mle_priors,
    build_uniform_priors,
    reference_accuracies,
    vote_fraction,
)

from labelforge.model import VoteRows, class_prior_table

import kernel_reference as ref


def spec_pairs(votes, spec) -> np.ndarray:
    """Each row's class priors (P(+1), P(-1)) under the spec's label prior,
    the row anchored to its own majority vote."""
    table = class_prior_table(spec.label_prior.p)
    return np.exp(np.column_stack(VoteRows.of(votes).class_priors(table)))


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote([[1, 1, -1]])[0] == 1

    def test_tie_abstains(self):
        assert majority_vote([[1, -1, 0]])[0] == 0

    def test_all_abstain(self):
        assert majority_vote([[0, 0, 0]])[0] == 0

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(1)
        votes = rng.integers(-1, 2, size=(40, 5))
        perm = rng.permutation(5)
        np.testing.assert_array_equal(majority_vote(votes), majority_vote(votes[:, perm]))

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(2)
        votes = rng.integers(-1, 2, size=(15, 4))
        doubled = np.vstack([votes, votes])
        np.testing.assert_array_equal(
            majority_vote(doubled), np.concatenate([majority_vote(votes)] * 2)
        )

    def test_vote_fraction(self):
        frac = vote_fraction([[1, 1, -1], [0, 0, 0], [-1, -1, 0]])
        np.testing.assert_allclose(frac, [2 / 3, 0.5, 0.0])


class TestAccuracyVsReference:
    """reference_accuracies on one LF column."""

    def test_partial_overlap(self):
        assert reference_accuracies([[1], [-1], [0]], [1, 1, 1])[0] == pytest.approx(0.5)

    def test_self_reference(self):
        col = np.array([1, 0, -1, 1])
        assert reference_accuracies(col[:, None], col)[0] == 1.0

    def test_empty_overlap(self):
        # no row where both vote: the uninformative mean
        assert reference_accuracies([[0], [1]], [1, 0])[0] == 0.5

    def test_reference_abstentions_excluded(self):
        # only the first row counts: both vote there and agree
        assert reference_accuracies([[1], [1], [-1]], [1, 0, 0])[0] == 1.0


class TestBetaFromMean:
    def test_basic(self):
        u, v = beta_from_mean(0.8, 10)
        assert (u, v) == pytest.approx((8.0, 2.0), rel=1e-12)

    def test_symmetric(self):
        assert beta_from_mean(0.5, 100) == pytest.approx((50.0, 50.0), rel=1e-12)

    def test_fractional_mean(self):
        u, v = beta_from_mean(0.68, 10)
        assert (u, v) == pytest.approx((6.8, 3.2), rel=1e-12)
        assert u / (u + v) == pytest.approx(0.68, abs=1e-12)

    def test_boundary_means_shrunk(self):
        u, v = beta_from_mean(1.0, 10)
        assert u / (u + v) == pytest.approx(1 - 1 / 12, rel=1e-12)
        u, v = beta_from_mean(0.0, 10)
        assert u / (u + v) == pytest.approx(1 / 12, rel=1e-12)


class TestBuilders:
    def test_mv_priors_toy_matrix(self):
        votes = [[1, 1, -1], [-1, -1, 1]]
        spec = build_mv_priors(votes, 10.0)
        assert spec.label_prior == LabelPrior()  # no rows: it anchors to any matrix's own
        # first two LFs always match MV, third never does
        np.testing.assert_allclose(spec.means, [1.0, 1.0, 0.0])
        mean3 = spec.accuracy_prior.u[2] / (spec.accuracy_prior.u[2] + spec.accuracy_prior.v[2])
        assert mean3 == pytest.approx(1 / 12, rel=1e-12)

    def test_mean_and_mass_invariants(self):
        rng = np.random.default_rng(5)
        votes = rng.integers(-1, 2, size=(30, 4))
        for s in (10.0, 100.0):
            spec = build_mv_priors(votes, s)
            u, v = spec.accuracy_prior.u, spec.accuracy_prior.v
            np.testing.assert_allclose(u + v, s, rtol=1e-12)
            requested = np.clip(spec.means, 1 / (s + 2), 1 - 1 / (s + 2))
            np.testing.assert_allclose(u / (u + v), requested, atol=1e-12)

    def test_p_half_gives_uninformative_pairs(self):
        votes = [[1, 1, -1], [-1, -1, 1]]
        spec = build_mv_priors(votes, 10.0, p=0.5)
        np.testing.assert_allclose(spec_pairs(votes, spec), 0.5)

    def test_aligned_pairs(self):
        votes = [[1, 1], [-1, -1], [0, 0]]
        spec = build_mv_priors(votes, 10.0, p=0.9)
        pairs = spec_pairs(votes, spec)
        np.testing.assert_allclose(pairs, [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        np.testing.assert_allclose(pairs, ref.pairs(majority_vote(votes), 0.9))

    def test_empirical_matches_mv_when_truth_is_mv(self):
        rng = np.random.default_rng(6)
        votes = rng.integers(-1, 2, size=(25, 3))
        votes = votes[majority_vote(votes) != 0]  # truth cannot abstain
        mv = majority_vote(votes)
        spec_mv = build_mv_priors(votes, 10.0)
        spec_emp = build_empirical_priors(votes, mv, 10.0)
        np.testing.assert_array_equal(spec_mv.accuracy_prior.u, spec_emp.accuracy_prior.u)
        np.testing.assert_array_equal(spec_mv.accuracy_prior.v, spec_emp.accuracy_prior.v)

    def test_empirical_single_perfect_lf(self):
        votes = [[1], [-1], [1]]
        truth = [1, -1, 1]
        spec = build_empirical_priors(votes, truth, 10.0)
        assert spec.means[0] == 1.0
        mean = spec.accuracy_prior.mean()[0]
        assert mean == pytest.approx(1 - 1 / 12, rel=1e-12)

    def test_random_priors_deterministic(self):
        a = build_random_priors(3, 10.0, seed=9)
        b = build_random_priors(3, 10.0, seed=9)
        np.testing.assert_array_equal(a.accuracy_prior.u, b.accuracy_prior.u)
        c = build_random_priors(3, 10.0, seed=10)
        assert not np.array_equal(a.accuracy_prior.u, c.accuracy_prior.u)
        assert ((a.means > 0) & (a.means < 1)).all()

    def test_uniform_priors(self):
        spec = build_uniform_priors(4)
        np.testing.assert_array_equal(spec.accuracy_prior.u, np.ones(4))
        np.testing.assert_array_equal(spec.accuracy_prior.v, np.ones(4))
        assert spec.source == "uniform"

    def test_mle_spec_has_the_label_prior_only(self):
        spec = build_mle_priors(p=0.9, force_abstain=True)
        assert (spec.source, spec.accuracy_prior, spec.strength, spec.means) == (
            "none", None, None, None
        )
        assert spec.label_prior == LabelPrior(0.9, force_abstain=True)

    def test_source_none_exactly_without_an_accuracy_prior(self):
        beta = build_uniform_priors(2).accuracy_prior
        for args in ((beta, LabelPrior(), None, "none"),
                     (None, LabelPrior(), 2.0, "none"),
                     (None, LabelPrior(), None, "none", np.full(2, 0.5))):
            with pytest.raises(DataError, match="'none' prior has no accuracy prior"):
                PriorSpec(*args)
        with pytest.raises(DataError, match="'uniform' prior needs an accuracy prior"):
            PriorSpec(None, LabelPrior(), 2.0, "uniform")

    def test_user_priors_pass_through(self):
        spec = build_user_priors([2.0, 3.0], [1.0, 6.0], p=0.7)
        np.testing.assert_allclose(spec.means, [2 / 3, 1 / 3])
        assert spec.strength is None  # uneven mass
        assert spec.label_prior.p == 0.7

    def test_reference_accuracies_substitutes_on_empty_overlap(self):
        votes = np.array([[0, 1], [0, -1]])
        means = reference_accuracies(votes, np.array([1, -1]))
        assert means[0] == 0.5
        assert means[1] == 1.0

    def test_reference_accuracies_equal_per_column_accuracy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            votes = rng.integers(-1, 2, size=(n, m))
            votes[:, rng.random(m) < 0.2] = 0
            reference = rng.integers(-1, 2, size=n)
            expected = []
            for j in range(m):
                accuracy = ref.column_accuracy(votes[:, j], reference)
                expected.append(0.5 if accuracy is None else accuracy)
            np.testing.assert_array_equal(reference_accuracies(votes, reference), expected)

    def test_reference_accuracies_length_mismatch(self):
        with pytest.raises(DataError):
            reference_accuracies(np.array([[1], [0]]), np.array([1]))

    def test_strength_must_be_positive(self):
        with pytest.raises(DataError):
            beta_from_mean(0.5, 0.0)
