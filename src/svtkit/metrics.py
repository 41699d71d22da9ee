"""Utility metrics for top-c selection runs.

Two set metrics score a run's emitted positives against the true top-c:
a rank-weighted cumulative score (ncr) and plain F1. A third estimator
measures (alpha, beta)-accuracy empirically: the probability that a run
misclassifies some query by more than alpha around its threshold, or stops
before every query was seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import checks
from .data import Items
from .svt import Record, SvtOutcome, frozen


@dataclass(frozen=True, init=False, eq=False)
class GroundTruth(Record):
    """True ranking of a dataset's items, score-descending with id tie-break.

    ``ids`` covers every item; ``scores[i]`` is the true score of
    ``ids[i]``. c is the selection size the metrics target.
    ``ranked_ids`` reads the ids back as a tuple.
    """

    ids: np.ndarray
    scores: np.ndarray
    threshold: float
    c: int

    def __init__(self, ranked_ids, scores, threshold: float, c: int) -> None:
        checks.finite(threshold=threshold)
        checks.count(1, c=c)
        vars(self).update(ids=frozen(ranked_ids, np.int64),
                          scores=frozen(scores, float),
                          threshold=float(threshold), c=c)
        checks.unique_finite(self.ids, self.scores)
        s, i = self.scores, self.ids
        if not ((s[:-1] > s[1:]) | ((s[:-1] == s[1:]) & (i[:-1] < i[1:]))).all():
            raise ValueError("ranking must be score-descending with "
                             "ascending-id tie-break")

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, float]], threshold: float,
                   c: int) -> "GroundTruth":
        items = Items.of(items)
        order = np.lexsort((items.ids, -items.scores))
        return cls(ranked_ids=items.ids[order], scores=items.scores[order],
                   threshold=threshold, c=c)

    @property
    def ranked_ids(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def top_c_ids(self) -> tuple[int, ...]:
        return tuple(self.ids[:self.c].tolist())


def ncr(positives: Iterable[int], truth: GroundTruth) -> float:
    """Rank-weighted top-c recovery, normalized to [0, 1].

    An emitted id with true rank i <= c and true score at or above the
    threshold contributes c - i + 1; anything ranked beyond c or scoring
    below the threshold contributes nothing. The sum is divided by
    c(c+1)/2, the score of a perfect selection.
    """
    emitted = list(dict.fromkeys(positives))
    if len(emitted) > truth.c:
        raise ValueError(f"at most c={truth.c} positives expected, "
                         f"got {len(emitted)}")
    credit = {}
    for rank0, (item, score) in enumerate(zip(truth.ids[:truth.c].tolist(),
                                              truth.scores[:truth.c].tolist())):
        if score >= truth.threshold:
            credit[item] = truth.c - rank0
    total = sum(credit.get(item, 0) for item in emitted)
    return 2.0 * total / (truth.c * (truth.c + 1))


def f1(positives: Iterable[int], truth: GroundTruth) -> float:
    """F1 of the emitted set against the true top-c set."""
    emitted = set(positives)
    target = set(truth.top_c_ids())
    tp = len(emitted & target)
    denom = 2 * tp + len(emitted - target) + len(target - emitted)
    return 2.0 * tp / denom if denom else 0.0


def alpha_beta_estimate(runner: Callable[[np.random.Generator], SvtOutcome],
                        alpha: float, truth: GroundTruth, trials: int,
                        rng: np.random.Generator) -> float:
    """Empirical failure rate of a run closure at tolerance alpha.

    A trial fails when some positive answer's true score is below
    threshold - alpha, some negative answer's true score is above
    threshold + alpha, or the run halted with queries never evaluated.

    Args:
        runner: closure running one mechanism invocation with the given rng.
        alpha: score tolerance (nonnegative).
        truth: ground truth carrying every queried id's true score.
        trials: number of Monte-Carlo repetitions, at least 1.
        rng: the random stream shared by all trials.

    Returns:
        The fraction of failed trials.
    """
    checks.count(1, trials=trials)
    checks.nonnegative(alpha=alpha)
    order = np.argsort(truth.ids)
    ids, scores = truth.ids[order], truth.scores[order]
    # Row 0: wrong if answered negative; row 1: wrong if answered positive.
    wrong = np.stack((scores > truth.threshold + alpha,
                      scores < truth.threshold - alpha))
    failures = 0
    for _ in range(trials):
        outcome = runner(rng)
        at = ids.searchsorted(outcome.answer_ids)
        if np.count_nonzero(ids.take(at, mode="clip") != outcome.answer_ids):
            raise ValueError("an answered id is missing from the ground truth")
        bad = np.count_nonzero(wrong[outcome.flags.view(np.uint8), at])
        # Each query is evaluated in traverse 1 exactly once, so these
        # answers count the distinct queries seen.
        unseen = np.count_nonzero(outcome.traverses == 1) < ids.size
        failures += bool(bad or unseen)
    return failures / trials


def accuracy_alpha_bound(k: int, eps: float, beta: float) -> float:
    """Tolerance guaranteeing failure rate at most beta for the corrected
    exponential mechanism with c=1, unit sensitivity, and an even split:
    alpha = 4(ln k + ln(2/beta))/eps."""
    checks.count(1, k=k)
    checks.positive(eps=eps)
    checks.probability(beta=beta)
    return 4.0 * (math.log(k) + math.log(2.0 / beta)) / eps


def accuracy_beta_bound(k: int, eps: float, alpha: float) -> float:
    """Inverse of :func:`accuracy_alpha_bound`: beta = 2k exp(-alpha eps/4),
    capped at 1."""
    checks.count(1, k=k)
    checks.positive(eps=eps)
    checks.nonnegative(alpha=alpha)
    return min(1.0, 2.0 * k * math.exp(-alpha * eps / 4.0))
