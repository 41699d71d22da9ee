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
from .data import Items, ScoredDataset
from .svt import Record, SvtOutcome, frozen, sealed


@dataclass(frozen=True, init=False, eq=False)
class GroundTruth(Record):
    """True ranking, score-descending with id tie-break: ``scores[i]`` is
    the true score of ``ids[i]``, c the selection size. :func:`ncr`,
    :func:`f1` and a sweep's ``upper`` cell (its c-th score) read the first
    c entries, all :meth:`top` holds; :func:`alpha_beta_estimate` needs
    every queried id, and raises on a missing one."""

    ids: np.ndarray
    scores: np.ndarray
    threshold: float
    c: int

    def __init__(self, ids, scores, threshold: float, c: int) -> None:
        checks.finite(threshold=threshold)
        checks.count(1, c=c)
        vars(self).update(ids=frozen(ids, np.int64),
                          scores=frozen(scores, float),
                          threshold=float(threshold), c=c)
        if self.ids.size == 0:
            raise ValueError("a ranking needs at least one item")
        checks.unique_finite(self.ids, self.scores)
        s, i = self.scores, self.ids
        if not ((s[:-1] > s[1:]) | ((s[:-1] == s[1:]) & (i[:-1] < i[1:]))).all():
            raise ValueError("ranking must be score-descending with "
                             "ascending-id tie-break")

    @classmethod
    def ranked(cls, ids, scores, threshold: float, c: int) -> "GroundTruth":
        """The ranking of aligned id and score columns in any order."""
        ids, scores = frozen(ids, np.int64), frozen(scores, float)
        order = np.lexsort((ids, -scores))
        return cls(sealed(ids[order]), sealed(scores[order]), threshold, c)

    @classmethod
    def top(cls, ds: ScoredDataset, c: int) -> "GroundTruth":
        """The first min(c, n) entries of :meth:`ranked` over a dataset, bit
        for bit, ranking only the items that reach its c-th score."""
        checks.count(1, c=c)
        at = _top(ds.scores, c, ds.ids)
        return cls(sealed(ds.ids[at]), sealed(ds.scores[at]), ds.threshold, c)

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, float]], threshold: float,
                   c: int) -> "GroundTruth":
        if not isinstance(items, Items):
            pairs = list(items)
            items = Items([p[0] for p in pairs], [p[1] for p in pairs])
        return cls.ranked(items.ids, items.scores, threshold, c)

    def top_c_ids(self) -> tuple[int, ...]:
        return tuple(self.ids[:self.c].tolist())


def _top(values: np.ndarray, c: int, ties=None) -> np.ndarray:
    """Positions of the c largest values, largest first and ties in
    ascending ``ties`` (position order by default): ``np.lexsort((ties,
    -values))[:c]``, sorting only the values that reach the c-th."""
    k = values.size - min(c, values.size)
    at = np.flatnonzero(values >= np.partition(values, k)[k])
    return at[np.lexsort((at if ties is None else ties[at], -values[at]))[:c]]


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
    top = zip(truth.top_c_ids(), truth.scores[:truth.c].tolist())
    credit = {item: truth.c - rank0 for rank0, (item, score) in enumerate(top)
              if score >= truth.threshold}
    total = sum(credit.get(item, 0) for item in emitted)
    return 2.0 * total / (truth.c * (truth.c + 1))


def f1(positives: Iterable[int], truth: GroundTruth) -> float:
    """F1 of the emitted set against the true top-c set."""
    emitted = set(positives)
    target = truth.top_c_ids()
    tp = len(emitted.intersection(target))
    denom = len(emitted) + len(target)  # 2 tp + false pos. + false neg.
    return 2.0 * tp / denom if denom else 0.0


_BATCH_ANSWERS = 1 << 12  # outcomes are held until this many answers


def alpha_beta_estimate(runner: Callable[[np.random.Generator], SvtOutcome],
                        alpha: float, truth: GroundTruth, trials: int,
                        rng: np.random.Generator) -> float:
    """Empirical failure rate of a run closure at tolerance alpha.

    A trial fails when some positive answer's true score is below
    threshold - alpha, some negative answer's true score is above
    threshold + alpha, or the run halted with queries never evaluated:
    fewer distinct answers than its stream's length, ``n_queries`` (the
    truth's size for an outcome built from columns).

    The runner is called ``trials`` times in order on ``rng``, and the
    outcomes are checked in batches of about 2^12 answers, one vectorized
    pass each: an id missing from ``truth`` raises ``ValueError`` at the
    end of its batch, after up to one batch of further runner calls.

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
    failures = held = 0
    batch: list[SvtOutcome] = []
    for trial in range(1, trials + 1):
        batch.append(runner(rng))
        held += batch[-1].answer_ids.size
        if held >= _BATCH_ANSWERS or trial == trials:
            failures += _failed_trials(batch, ids, wrong)
            batch, held = [], 0
    return failures / trials


def _failed_trials(batch: list[SvtOutcome], ids: np.ndarray,
                   wrong: np.ndarray) -> int:
    id_cols, flag_cols, traverse_cols, queries = zip(*[
        (o.answer_ids, o.flags, o.traverses, o.n_queries or ids.size)
        for o in batch])
    answer_ids = np.concatenate(id_cols)
    at = ids.searchsorted(answer_ids)
    if np.count_nonzero(ids.take(at, mode="clip") != answer_ids):
        raise ValueError("an answered id is missing from the ground truth")
    flags = np.concatenate(flag_cols).view(np.uint8)
    trial = np.repeat(np.arange(len(batch)), list(map(len, flag_cols)))
    bad = np.bincount(trial[wrong[flags, at]], minlength=len(batch))
    # Each query is evaluated in traverse 1 exactly once, so these answers
    # count the distinct queries seen.
    first = np.concatenate(traverse_cols) == 1
    seen = np.bincount(trial[first], minlength=len(batch))
    return int(np.count_nonzero(bad | (seen < queries)))


def accuracy_alpha_bound(k: int, eps: float, beta: float) -> float:
    """Tolerance guaranteeing failure rate at most beta for the corrected
    exponential mechanism with c=1, unit sensitivity, and an even split:
    alpha = 4(ln k + ln(2/beta))/eps."""
    checks.count(1, k=k)
    checks.positive(eps=eps)
    checks.probability(beta=beta)
    return 4.0 * (math.log(k) + math.log(2.0 / beta)) / eps
