"""Automatic prior construction from majority vote over the LF matrix.

Beta-prior means over LF accuracies come from scoring each LF against a
reference label vector: the unweighted majority vote (the default,
ground-truth-free heuristic), the true labels (an experimental upper
bound), random draws (a control), or explicit user values. Prior strength
is the total pseudo-count mass s, split as u = s * mean, v = s * (1 - mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import BetaPrior, LabelPrior, as_label_vector, as_lf_matrix, row_majority

PRIOR_SOURCES = ("none", "mv", "empirical", "random", "uniform", "user")


@dataclass(frozen=True)
class PriorSpec:
    """A full prior configuration: beta priors over accuracies plus the label prior.

    ``means`` records the requested accuracy-prior means before boundary
    shrinkage, so prior-quality reports can measure distances against what
    was asked for. ``strength`` is the pseudo-count mass u + v shared by
    all LFs (None for user-supplied priors with uneven mass). A spec holds
    per-LF values and the label prior's settings only, so one built on a
    matrix can be fitted on any matrix with the same LFs (a split of it,
    say): the label prior anchors to the rows being fitted. A spec read from
    a model file is checked here too: its strength must be finite, > 0 and
    equal to each LF's u + v (up to rounding), its means in [0, 1].

    Plain likelihood (the ``mle`` mode) is the spec of source ``none``: the
    label prior only, with no accuracy prior, strength or means. Every
    other source has an accuracy prior.
    """

    accuracy_prior: BetaPrior | None
    label_prior: LabelPrior
    strength: float | None
    source: str
    means: np.ndarray | None = None

    def __post_init__(self):
        if self.source not in PRIOR_SOURCES:
            raise DataError(f"unknown prior source {self.source!r}")
        if self.source == "none":
            if any(x is not None for x in (self.accuracy_prior, self.strength, self.means)):
                raise DataError("a 'none' prior has no accuracy prior, strength or means")
            return
        if self.accuracy_prior is None:
            raise DataError(f"a {self.source!r} prior needs an accuracy prior")
        if self.strength is not None and not 0 < self.strength < np.inf:
            raise DataError(f"prior strength must be a finite number > 0, got {self.strength}")
        mass = self.accuracy_prior.u + self.accuracy_prior.v  # the strength, up to rounding
        if self.strength is not None and not np.allclose(mass, self.strength, rtol=1e-12, atol=0):
            raise DataError(f"prior strength {self.strength!r} contradicts u + v = {mass.max():g}")
        if self.means is not None:
            means = np.asarray(self.means, dtype=np.float64)
            if not ((means >= 0) & (means <= 1)).all():
                raise DataError("prior means must be finite and lie in [0, 1]")
            object.__setattr__(self, "means", means)


def majority_vote(votes) -> np.ndarray:
    """Per-row unweighted majority vote; ties and all-abstain rows yield 0."""
    return row_majority(as_lf_matrix(votes))


def vote_fraction(votes) -> np.ndarray:
    """Per-row fraction of non-abstaining votes that are +1 (0.5 when none vote).

    Serves as the soft score attached to majority-vote predictions.
    """
    votes = as_lf_matrix(votes)
    pos = (votes == 1).sum(axis=1).astype(np.float64)
    neg = (votes == -1).sum(axis=1).astype(np.float64)
    total = pos + neg
    out = np.full(votes.shape[0], 0.5, dtype=np.float64)
    voting = total > 0
    out[voting] = pos[voting] / total[voting]
    return out


def beta_from_mean(mean, strength: float):
    """Beta parameters (u, v) with the given mean and pseudo-count mass,
    elementwise when ``mean`` is an array.

    Means at or below 0 or at or above 1 are first shrunk to 1/(s+2) or
    1 - 1/(s+2) so the density stays finite on the open interval.
    """
    if not strength > 0:
        raise DataError(f"strength must be > 0, got {strength}")
    lo = 1.0 / (strength + 2.0)
    mean = np.where(mean <= 0.0, lo, np.where(mean >= 1.0, 1.0 - lo, mean))
    return strength * mean, strength * (1.0 - mean)


def reference_accuracies(votes, reference) -> np.ndarray:
    """Per-column accuracy against a reference vector: the fraction of
    agreements over the rows where both the LF and the reference vote
    (abstentions excluded on both sides), 0.5 where there is no such row."""
    votes = as_lf_matrix(votes)
    ref = as_label_vector(reference)
    if ref.shape[0] != votes.shape[0]:
        raise DataError(f"reference length {ref.shape[0]} != row count {votes.shape[0]}")
    voted = ref != 0
    cast = votes[voted]
    overlap = (cast != 0).sum(axis=0)
    agree = (cast == ref[voted, None]).sum(axis=0)
    means = np.full(votes.shape[1], 0.5)
    np.divide(agree, overlap, out=means, where=overlap > 0)
    return means


def _spec_from_means(
    means: np.ndarray, strength: float, p: float, force_abstain: bool, source: str
) -> PriorSpec:
    return PriorSpec(
        accuracy_prior=BetaPrior(*beta_from_mean(means, strength)),
        label_prior=LabelPrior(p=p, force_abstain=force_abstain),
        strength=float(strength),
        source=source,
        means=means,
    )


def build_mv_priors(
    votes, strength: float, p: float = 0.5, force_abstain: bool = False
) -> PriorSpec:
    """Priors whose accuracy means score each LF against the majority vote,
    used as a proxy for unavailable ground truth."""
    votes = as_lf_matrix(votes)
    means = reference_accuracies(votes, majority_vote(votes))
    return _spec_from_means(means, strength, p, force_abstain, "mv")


def build_empirical_priors(
    votes, truth, strength: float, p: float = 0.5, force_abstain: bool = False
) -> PriorSpec:
    """Priors whose accuracy means are the LF accuracies against ground truth
    (simulated optimal priors; the label prior still anchors to majority vote)."""
    votes = as_lf_matrix(votes)
    truth = as_label_vector(truth, allow_abstain=False)
    if truth.shape[0] != votes.shape[0]:
        raise DataError(f"truth length {truth.shape[0]} != row count {votes.shape[0]}")
    means = reference_accuracies(votes, truth)
    return _spec_from_means(means, strength, p, force_abstain, "empirical")


def build_random_priors(
    m: int, strength: float, seed: int, p: float = 0.5, force_abstain: bool = False
) -> PriorSpec:
    """Priors with means drawn uniformly from (0, 1); deterministic per seed."""
    if m < 1:
        raise DataError(f"need at least one LF, got m={m}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=m)
    return _spec_from_means(means, strength, p, force_abstain, "random")


def build_uniform_priors(m: int, p: float = 0.5, force_abstain: bool = False) -> PriorSpec:
    """Uniform beta priors (u = v = 1): zero log-density contribution, so the
    regularized objective collapses to the plain-likelihood one."""
    if m < 1:
        raise DataError(f"need at least one LF, got m={m}")
    ones = np.ones(m, dtype=np.float64)
    return PriorSpec(
        accuracy_prior=BetaPrior(ones, ones.copy()),
        label_prior=LabelPrior(p=p, force_abstain=force_abstain),
        strength=2.0,
        source="uniform",
        means=np.full(m, 0.5),
    )


def build_mle_priors(p: float = 0.5, force_abstain: bool = False) -> PriorSpec:
    """The plain-likelihood spec: the label prior, and no accuracy prior."""
    return PriorSpec(None, LabelPrior(p=p, force_abstain=force_abstain), None, "none")


def build_user_priors(u, v, p: float = 0.5, force_abstain: bool = False) -> PriorSpec:
    """Pass-through for explicit (u, v, p) values supplied by the caller."""
    prior = BetaPrior(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
    mass = prior.u + prior.v
    strength = float(mass[0]) if np.all(mass == mass[0]) else None
    return PriorSpec(
        accuracy_prior=prior,
        label_prior=LabelPrior(p=p, force_abstain=force_abstain),
        strength=strength,
        source="user",
        means=prior.mean(),
    )
