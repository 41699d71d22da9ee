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
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from . import checks
from .data import Items, ScoredDataset
from .svt import Record, SvtOutcome, TrialRecord, frozen, sealed


@dataclass(frozen=True, init=False, eq=False)
class GroundTruth(Record):
    """True ranking, score-descending with id tie-break: ``scores[i]`` is
    the true score of ``ids[i]``, c the selection size. :func:`ncr`,
    :func:`f1` and a sweep's ``upper`` cell (its c-th score) read the first
    c entries, all :meth:`top` holds; :func:`alpha_beta_estimate` needs
    every queried id, and raises on a missing one. ncr and f1 read a
    scoring table built on a truth's first score and kept; it is no field,
    so ``==``, ``repr`` and pickles ignore it."""

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

    # The scoring table, kept from the first score: each top-c id's credit,
    # c - rank0 at or above the threshold and 0 below it. Its keys are the
    # top-c set that f1 reads.
    _credit = cached_property(lambda t: {
        item: t.c - rank0 if score >= t.threshold else 0
        for rank0, (item, score) in enumerate(zip(
            t.top_c_ids(), t.scores[:t.c].tolist()))})


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
    emitted = set(positives)
    if len(emitted) > truth.c:
        raise ValueError(f"at most c={truth.c} positives expected, "
                         f"got {len(emitted)}")
    total = sum(map(truth._credit.get, truth._credit.keys() & emitted))
    return 2.0 * total / (truth.c * (truth.c + 1))


def f1(positives: Iterable[int], truth: GroundTruth) -> float:
    """F1 of the emitted set against the true top-c set."""
    emitted = set(positives)
    target = truth._credit.keys()
    tp = len(target & emitted)
    denom = len(emitted) + len(target)  # 2 tp + false pos. + false neg.
    return 2.0 * tp / denom if denom else 0.0


_BATCH_ANSWERS = 1 << 12  # outcomes are held until this many answers
_MISSING = "an answered id is missing from the ground truth"


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
    pass each: an answered id missing from ``truth`` raises ``ValueError``
    at the end of its batch, after up to one batch of further runner
    calls. A one-block outcome of ``run_svt`` answered a prefix of its
    stream, so it is checked by stream position: each stream's ids are
    looked up in the truth once per call.

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
    ids, wrong = _truth_masks(truth, alpha)
    # The truth by position of each stream checked so far, keyed by the id()
    # of its id column, which the entry holds so that no other takes it.
    streams: dict[int, tuple] = {}
    failures = held = 0
    batch: dict[int, list[SvtOutcome]] = {}  # by id(_prefix_of)
    for trial in range(1, trials + 1):
        outcome = runner(rng)
        batch.setdefault(id(outcome._prefix_of), []).append(outcome)
        held += outcome.flags.size
        if held >= _BATCH_ANSWERS or trial == trials:
            for group in batch.values():
                failures += _failed_trials(group, ids, wrong, streams)
            batch, held = {}, 0
    return failures / trials


def failure_rate(record: TrialRecord, alpha: float,
                 truth: GroundTruth) -> float:
    """:func:`alpha_beta_estimate`'s failure rate over the runs of
    :func:`svt.run_trials`, by the same check by stream position: with the
    same generator it is the estimate of a runner calling ``run_svt``, bit
    for bit. An answered id missing from ``truth`` raises ``ValueError``."""
    checks.nonnegative(alpha=alpha)
    full = record.flags[record.n_a == record.ids.size]
    return _prefix_failures(record.ids, record.n_a, full, *_truth_masks(
        truth, alpha), {}) / record.n_a.size


def _truth_masks(truth: GroundTruth, alpha: float):
    """The truth's ids ascending and, aligned with them, row 0: wrong if
    answered negative; row 1: wrong if answered positive."""
    order = np.argsort(truth.ids)
    ids, scores = truth.ids[order], truth.scores[order]
    return ids, np.stack((scores > truth.threshold + alpha,
                          scores < truth.threshold - alpha))


def _prefix_failures(column: np.ndarray, lengths, full: np.ndarray,
                     ids: np.ndarray, wrong: np.ndarray, streams: dict) -> int:
    """Failed trials among runs that answered prefixes of the in-order id
    ``column``: ``lengths`` are their answer counts and ``full`` the flags
    of those that answered all of it, one row each. A shorter run left
    queries unseen, and one that answered an id the truth lacks raises.
    ``streams`` keeps the column's truth rows by position and whether the
    truth holds each id, under the column's id(), and the column itself."""
    if id(column) not in streams:
        at = ids.searchsorted(column)
        streams[id(column)] = (column, wrong.take(at, axis=1, mode="clip"),
                               ids.take(at, mode="clip") == column)
    _, rows, known = streams[id(column)]
    if not known[:np.max(lengths)].all():
        raise ValueError(_MISSING)
    # A flag is wrong where it is not row 0's (a score above threshold +
    # alpha) and the score lies outside the band where either is right.
    bad = np.flatnonzero((full != rows[0]) & (rows[0] | rows[1]))
    return (int(np.count_nonzero(np.less(lengths, column.size)))
            + np.unique(bad // column.size).size)


def _failed_trials(group: list[SvtOutcome], ids: np.ndarray,
                   wrong: np.ndarray, streams: dict) -> int:
    """Failed trials among a batch's outcomes that answered prefixes of one
    stream column, by stream position, or among those that did not
    (``_prefix_of`` None), by id."""
    column = group[0]._prefix_of
    if column is not None:
        full = [o.flags for o in group if o.flags.size == column.size]
        full = np.concatenate(full or [np.zeros(0, bool)])
        return _prefix_failures(column, [o.flags.size for o in group],
                                full.reshape(-1, column.size), ids, wrong,
                                streams)
    id_cols, flag_cols, traverse_cols, queries = zip(*[
        (o.answer_ids, o.flags, o.traverses, o.n_queries or ids.size)
        for o in group])
    answer_ids = np.concatenate(id_cols)
    at = ids.searchsorted(answer_ids)
    if np.count_nonzero(ids.take(at, mode="clip") != answer_ids):
        raise ValueError(_MISSING)
    flags = np.concatenate(flag_cols).view(np.uint8)
    trial = np.repeat(np.arange(len(group)), list(map(len, flag_cols)))
    bad = np.bincount(trial[wrong[flags, at]], minlength=len(group))
    # Each query is evaluated in traverse 1 exactly once, so these answers
    # count the distinct queries seen.
    first = np.concatenate(traverse_cols) == 1
    seen = np.bincount(trial[first], minlength=len(group))
    return int(np.count_nonzero(bad | (seen < queries)))


def accuracy_alpha_bound(k: int, eps: float, beta: float) -> float:
    """Tolerance guaranteeing failure rate at most beta for the corrected
    exponential mechanism with c=1, unit sensitivity, and an even split:
    alpha = 4(ln k + ln(2/beta))/eps."""
    checks.count(1, k=k)
    checks.positive(eps=eps)
    checks.probability(beta=beta)
    return 4.0 * (math.log(k) + math.log(2.0 / beta)) / eps
