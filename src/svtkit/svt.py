"""Sparse Vector Technique engines.

One engine runs every variant: Laplace threshold noise (Gaussian for the
Gaussian baseline) drawn once -- or redrawn after each positive when
``resample`` is on -- plus fresh per-evaluation query noise. A query is
answered positively when

    score + query_noise >= threshold + threshold_noise + r

with r the active threshold correction. The run halts once c positives
were emitted, once k_max evaluations were spent, or when the queue drains.
With ``append`` on, negatively answered queries re-enter the queue tail
until their per-query evaluation cap is reached, consuming no extra
privacy budget.
"""

from __future__ import annotations

import enum
import inspect
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import noise as noise_mod
from .allocation import Variant, calibrate, query_sensitivity
from .correction import CorrectionQuery, optimal_correction
from .noise import NoiseDist


class HaltReason(enum.Enum):
    POSITIVE_BUDGET = "positive-budget"
    QUERY_BUDGET = "query-budget"
    EXHAUSTED = "exhausted"


class QueryEntry(NamedTuple):
    query_id: int
    score: float
    threshold: float


class Answer(NamedTuple):
    query_id: int
    flagged: bool
    traverse: int


@dataclass(frozen=True)
class QueryStream:
    """An ordered stream of (id, score, threshold) queries with unique ids."""

    entries: tuple[QueryEntry, ...]

    def __post_init__(self) -> None:
        ids = [e.query_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("query ids must be unique within a stream")

    @classmethod
    def with_threshold(cls, scored: Sequence[tuple[int, float]],
                       threshold: float) -> "QueryStream":
        """Build a stream where every query shares one threshold."""
        return cls(tuple(QueryEntry(int(i), float(s), float(threshold))
                         for i, s in scored))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class SvtConfig:
    """All mechanism parameters of one run.

    Args:
        delta: query sensitivity.
        eps1: threshold-noise budget.
        eps2: query-noise budget.
        c: positive-answer budget.
        k_max: total evaluation budget.
        variant: noise family and correction mode.
        resample: redraw the threshold noise after every positive answer
            (privacy cost becomes c*eps1 + eps2).
        append: re-enqueue negatively answered queries.
        max_traverses: per-query evaluation cap when append is on.
        monotonic: neighboring datasets move all queries one way, halving
            the query-noise scale.
        alpha: score tolerance fed to the correction optimizer.
        k_est: estimated negatives answered per positive, for the
            correction optimizer; the harness sets floor(n_items / c).
        correction_override: fixed correction term overriding the
            variant's rule when not None (0.0 counts as set).
        delta_dp: failure probability of the Gaussian baseline; required
            in (0, 1) for that variant, ignored otherwise.
    """

    delta: float
    eps1: float
    eps2: float
    c: int
    k_max: int
    variant: Variant
    resample: bool = False
    append: bool = False
    max_traverses: int = 1
    monotonic: bool = False
    alpha: float = 0.0
    k_est: int = 1
    correction_override: Optional[float] = None
    delta_dp: Optional[float] = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0
                   for x in (self.delta, self.eps1, self.eps2)):
            raise ValueError("delta, eps1, eps2 must all be positive and finite")
        if self.c < 1 or self.k_max < 1 or self.max_traverses < 1:
            raise ValueError("c, k_max, max_traverses must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and nonnegative, "
                             f"got {self.alpha}")
        if self.k_est < 1:
            raise ValueError(f"k_est must be at least 1, got {self.k_est}")
        if self.variant.query_family == "gaussian":
            if self.delta_dp is None or not 0.0 < self.delta_dp < 1.0:
                raise ValueError("the Gaussian variant requires delta_dp "
                                 "in (0, 1)")


@dataclass(frozen=True)
class SvtOutcome:
    answers: tuple[Answer, ...]
    positives: tuple[int, ...]
    n_c: int
    n_a: int
    halt_reason: HaltReason
    correction_used: float


def effective_lambda(cfg: SvtConfig) -> float:
    """Rate of the exponential query noise: eps2/(2c*delta), halved denominator
    when monotonic."""
    if cfg.variant.query_family != "exponential":
        raise ValueError(f"variant {cfg.variant.value} has no exponential rate")
    return cfg.eps2 / query_sensitivity(cfg.c, cfg.delta, cfg.monotonic)


def privacy_cost(cfg: SvtConfig, outcome: SvtOutcome) -> tuple[float, float]:
    """Total privacy cost of a run: (epsilon, delta_dp).

    eps1 + eps2 without resampling; c*eps1 + eps2 with it (the threshold
    noise is paid per positive). delta_dp is 0 except for the Gaussian
    baseline, which reports its calibration failure probability.
    """
    eps = (cfg.c * cfg.eps1 if cfg.resample else cfg.eps1) + cfg.eps2
    dp = cfg.delta_dp if cfg.variant.query_family == "gaussian" else 0.0
    return eps, float(dp)


def noise_pair(cfg: SvtConfig) -> tuple[NoiseDist, NoiseDist]:
    """The (threshold, query) noise laws behind a config."""
    thr, qry = calibrate(cfg.variant, cfg.eps1, cfg.eps2, cfg.c, cfg.delta,
                         cfg.monotonic, cfg.delta_dp)
    return NoiseDist(*thr), NoiseDist(*qry)


def correction_term(cfg: SvtConfig) -> float:
    """The threshold correction a run of ``cfg`` will use.

    The override wins when set; otherwise the variant's rule applies:
    nothing for the Laplace/Gaussian baselines and the uncorrected
    exponential, the query-noise mean for the mean-corrected exponential
    and the Gumbel baseline, and the numerical optimizer's argmax for the
    optimally corrected exponential.
    """
    if cfg.correction_override is not None:
        return float(cfg.correction_override)
    v = cfg.variant
    if v in (Variant.LAP, Variant.GAU, Variant.EXP_NO_CORR):
        return 0.0
    thr, qry = noise_pair(cfg)
    if v in (Variant.GUM, Variant.EXP_MEAN_CORR):
        return qry.mean()
    query = CorrectionQuery(b=thr.scale, lam=effective_lambda(cfg),
                            alpha=cfg.alpha, k=cfg.k_est)
    return optimal_correction(query)[0]


def _check_override(noise_override: Callable) -> None:
    params = list(inspect.signature(noise_override).parameters.values())
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return
    positional = [p for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = [p for p in positional if p.default is p.empty]
    if len(required) > 3 or len(positional) < 3:
        raise ValueError("noise_override must be callable as "
                         "(role, query_id, traverse)")


def run_svt(queries: QueryStream, cfg: SvtConfig, rng: np.random.Generator,
            noise_override: Optional[Callable] = None) -> SvtOutcome:
    """Run one mechanism invocation over a query stream.

    Draw order is fixed for reproducibility: one threshold draw up front,
    then query noise for each processing batch in evaluation order; under
    ``resample``, threshold redraws happen per positive after the batch's
    query draws. A ``noise_override`` replaces both noise sources with a
    deterministic callable ``(role, query_id, traverse) -> float`` where
    role is "threshold" (query_id -1, traverse = redraw index) or "query".

    Ties (noisy score exactly equal to the corrected noisy threshold) are
    answered positively.
    """
    if len(queries) == 0:
        raise ValueError("empty query stream")
    if noise_override is not None:
        _check_override(noise_override)

    thr_dist, qry_dist = noise_pair(cfg)
    r = correction_term(cfg)

    redraws = 0

    def draw_threshold() -> float:
        nonlocal redraws
        if noise_override is not None:
            value = float(noise_override("threshold", -1, redraws))
        else:
            value = noise_mod.sample(thr_dist, rng)
        redraws += 1
        return value

    def draw_query(batch: list[tuple[QueryEntry, int]]) -> np.ndarray:
        if noise_override is not None:
            return np.array([float(noise_override("query", e.query_id, t))
                             for e, t in batch])
        return np.atleast_1d(noise_mod.sample(qry_dist, rng, size=len(batch)))

    pending: deque[tuple[QueryEntry, int]] = deque(
        (entry, 1) for entry in queries.entries)
    answers: list[Answer] = []
    positives: list[int] = []
    n_a = 0
    n_c = 0
    rho = draw_threshold()
    halt: Optional[HaltReason] = None

    while halt is None:
        if not pending:
            halt = HaltReason.EXHAUSTED
            break
        if n_a >= cfg.k_max:
            halt = HaltReason.QUERY_BUDGET
            break
        take = min(len(pending), cfg.k_max - n_a)
        batch = [pending.popleft() for _ in range(take)]
        v = draw_query(batch)
        base = np.fromiter(
            (e.score - e.threshold for e, _ in batch), dtype=float,
            count=take) + v - r

        if cfg.resample:
            flags = np.empty(take, dtype=bool)
            i = 0
            while i < take:
                above = base[i:] >= rho
                if not above.any():
                    flags[i:] = False
                    break
                hit = i + int(np.argmax(above))
                flags[i:hit] = False
                flags[hit] = True
                rho = draw_threshold()
                i = hit + 1
        else:
            flags = base >= rho

        flag_pos = np.flatnonzero(flags)
        room = cfg.c - n_c
        if len(flag_pos) >= room:
            used = int(flag_pos[room - 1]) + 1
            halt = HaltReason.POSITIVE_BUDGET
        else:
            used = take

        for idx in range(used):
            entry, traverse = batch[idx]
            if flags[idx]:
                answers.append(Answer(entry.query_id, True, traverse))
                positives.append(entry.query_id)
                n_c += 1
            else:
                answers.append(Answer(entry.query_id, False, traverse))
                if cfg.append and traverse < cfg.max_traverses:
                    pending.append((entry, traverse + 1))
        n_a += used

    return SvtOutcome(answers=tuple(answers), positives=tuple(positives),
                      n_c=n_c, n_a=n_a, halt_reason=halt, correction_used=r)
