"""Sparse Vector Technique engines.

One engine runs every variant: threshold noise drawn once -- or redrawn
after each positive when ``resample`` is on -- plus fresh per-evaluation
query noise, of the kinds in the variant's row (:class:`Variant`). A query
is answered positively when

    score + query_noise >= threshold + threshold_noise + r

with r the row's threshold correction. The run halts once c positives
were emitted, once k_max evaluations were spent, or when the queue drains.
With ``append`` on, negatively answered queries re-enter the queue tail
until their per-query evaluation cap is reached, consuming no extra
privacy budget.
"""

from __future__ import annotations

import enum
import inspect
import itertools
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import checks
from . import noise as noise_mod
from .allocation import Variant, calibrate, query_sensitivity
from .correction import CorrectionQuery, optimal_correction
from .noise import Kind, NoiseDist


class HaltReason(enum.Enum):
    POSITIVE_BUDGET = "positive-budget"
    QUERY_BUDGET = "query-budget"
    EXHAUSTED = "exhausted"


class QueryEntry(NamedTuple):
    query_id: int
    score: float
    threshold: float


def frozen(values, dtype) -> np.ndarray:
    """A read-only one-dimensional view of ``values`` as ``dtype``. An
    integer ``dtype`` takes only integers within its range and rejects
    anything else with ``ValueError``: a float id is never truncated. An
    array of ``dtype`` is viewed, not copied; one made here, from a list
    or by conversion, is :func:`sealed`."""
    array = np.asarray(values)
    if np.issubdtype(dtype, np.integer):
        if array.size and not (array.dtype.kind in "iu" and (
                np.can_cast(array.dtype, dtype)
                or array.max() <= np.iinfo(dtype).max)):
            raise ValueError(f"ids and other integer columns must be "
                             f"integers within {np.dtype(dtype)}, got "
                             f"{array.dtype} values")
    array = np.asarray(array, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {array.shape}")
    if array is not values and array.base is None:
        return sealed(array)
    array = array.view()
    array.flags.writeable = False
    return array


def sealed(array: np.ndarray) -> np.ndarray:
    """A read-only view of an array the library made, itself marked
    read-only so that no view of it can be made writable again."""
    array.flags.writeable = False
    return array.view()


class Record:
    """Base of the frozen array dataclasses: fields are set once in
    ``__init__`` or ``trusted``, and ``==`` compares the attributes that
    ``_compared`` names, arrays elementwise."""

    @classmethod
    def trusted(cls, **values):
        """An instance from field values that already meet the class's
        invariants, set without copying or validation."""
        record = cls.__new__(cls)
        vars(record).update(values)
        return record

    @property
    def _compared(self) -> tuple[str, ...]:
        """The attributes ``==`` compares: the dataclass fields, unless a
        class names others."""
        return tuple(f.name for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self._compared)


@dataclass(frozen=True, init=False, eq=False)
class QueryStream(Record):
    """An ordered stream of queries: unique int64 ids with finite float64
    scores and thresholds, taken as aligned columns; a single threshold
    number serves every query. :meth:`permuted` builds one as a view of a
    dataset's columns read in a given order. ``ids``, ``scores`` and
    ``thresholds`` read the stream in order and ``==`` compares them; it
    iterates as :class:`QueryEntry` tuples, the view perfbench reads.

    ``columns`` holds the source (ids, scores, thresholds) and ``order`` the
    int64 source row of each stream position, so the engine gathers only the
    rows it evaluates.
    """

    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    order: np.ndarray
    _compared = ("ids", "scores", "thresholds")

    def __init__(self, ids, scores, thresholds) -> None:
        ids, scores = frozen(ids, np.int64), frozen(scores, float)
        if np.ndim(thresholds) == 0:
            checks.finite(thresholds=thresholds)
            thresholds = np.broadcast_to(frozen([thresholds], float), ids.shape)
        thresholds = frozen(thresholds, float)
        vars(self).update(columns=(ids, scores, thresholds),
                          order=sealed(np.arange(ids.size)))
        checks.unique_finite(ids, scores, thresholds)

    @classmethod
    def permuted(cls, ids: np.ndarray, scores: np.ndarray, threshold: float,
                 order: np.ndarray) -> "QueryStream":
        """The rows ``order`` of id and score columns that already meet the
        class's invariants, each query with ``threshold``; nothing is copied
        or checked."""
        thresholds = np.broadcast_to(frozen([threshold], float), ids.shape)
        return cls.trusted(columns=(ids, scores, thresholds), order=order)

    def _read(self, column: int) -> np.ndarray:
        values = self.columns[column][self.order]
        values.flags.writeable = False
        return values

    ids = property(lambda self: self._read(0))
    scores = property(lambda self: self._read(1))
    thresholds = property(lambda self: self._read(2))

    def __len__(self) -> int:
        return self.order.size

    def __iter__(self):
        return map(QueryEntry, self.ids.tolist(), self.scores.tolist(),
                   self.thresholds.tolist())


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
        checks.positive(delta=self.delta, eps1=self.eps1, eps2=self.eps2)
        checks.count(1, c=self.c, k_max=self.k_max,
                     max_traverses=self.max_traverses, k_est=self.k_est)
        checks.nonnegative(alpha=self.alpha)
        checks.flag(resample=self.resample, append=self.append,
                    monotonic=self.monotonic)
        checks.instance(Variant, variant=self.variant)
        if self.correction_override is not None:
            checks.finite(correction_override=self.correction_override)
        if self.variant.query_kind is Kind.GAUSSIAN:
            checks.probability(delta_dp=self.delta_dp)


@dataclass(frozen=True, init=False, eq=False)
class SvtOutcome(Record):
    """One run's answers in evaluation order as aligned columns (queried
    id, flag, traverse). ``n_a`` (answers), ``n_c`` (positives) and
    ``positives`` (the flagged ids) are read off the columns."""

    answer_ids: np.ndarray
    flags: np.ndarray
    traverses: np.ndarray
    halt_reason: HaltReason
    correction_used: float

    def __init__(self, answer_ids, flags, traverses, halt_reason: HaltReason,
                 correction_used: float) -> None:
        vars(self).update(answer_ids=frozen(answer_ids, np.int64),
                          flags=frozen(flags, bool),
                          traverses=frozen(traverses, np.int64),
                          halt_reason=halt_reason,
                          correction_used=correction_used)
        if not self.answer_ids.size == self.flags.size == self.traverses.size:
            raise ValueError("answer ids, flags and traverses must align")

    n_a = property(lambda self: self.flags.size)
    n_c = property(lambda self: int(np.count_nonzero(self.flags)))

    @property
    def positives(self) -> tuple[int, ...]:
        return tuple(self.answer_ids[self.flags].tolist())


def effective_lambda(cfg: SvtConfig) -> float:
    """Rate of the exponential query noise: eps2/(2c*delta), halved denominator
    when monotonic."""
    if cfg.variant.query_kind is not Kind.EXPONENTIAL:
        raise ValueError(f"variant {cfg.variant.value} has no exponential rate")
    return cfg.eps2 / query_sensitivity(cfg.c, cfg.delta, cfg.monotonic)


def privacy_cost(cfg: SvtConfig, outcome: SvtOutcome) -> tuple[float, float]:
    """Total privacy cost of a run: (epsilon, delta_dp).

    eps1 + eps2 without resampling; c*eps1 + eps2 with it (the threshold
    noise is paid per positive). delta_dp is 0 except for the Gaussian
    baseline, which reports its calibration failure probability.
    """
    eps = (cfg.c * cfg.eps1 if cfg.resample else cfg.eps1) + cfg.eps2
    dp = cfg.delta_dp if cfg.variant.query_kind is Kind.GAUSSIAN else 0.0
    return eps, float(dp)


def noise_pair(cfg: SvtConfig) -> tuple[NoiseDist, NoiseDist]:
    """The (threshold, query) noise laws behind a config."""
    thr, qry = calibrate(cfg.variant, cfg.eps1, cfg.eps2, cfg.c, cfg.delta,
                         cfg.monotonic, cfg.delta_dp)
    return NoiseDist(*thr), NoiseDist(*qry)


def correction_term(cfg: SvtConfig) -> float:
    """The threshold correction a run of ``cfg`` will use.

    The override wins when set; otherwise the rule in the variant's row
    applies (:class:`Variant`): nothing, the query-noise mean, or the
    numerical optimizer's argmax.
    """
    if cfg.correction_override is not None:
        return float(cfg.correction_override)
    if cfg.variant.correction == "none":
        return 0.0
    if cfg.variant.correction == "mean":
        return noise_pair(cfg)[1].mean()
    query = CorrectionQuery.from_budget(cfg.eps1, cfg.eps2, cfg.c, cfg.delta,
                                        cfg.monotonic, cfg.alpha, cfg.k_est)
    return optimal_correction(query)[0]


@lru_cache(maxsize=256)
def config_laws(cfg: SvtConfig) -> tuple[NoiseDist, NoiseDist, float]:
    """(threshold law, query law, correction r) of ``cfg``, as given by
    :func:`noise_pair` and :func:`correction_term`; computed once per
    distinct config and kept in a bounded memo."""
    return noise_pair(cfg) + (correction_term(cfg),)


def _check_override(noise_override: Callable) -> None:
    try:
        inspect.signature(noise_override).bind("threshold", -1, 0)
    except TypeError:
        raise ValueError("noise_override must be callable as "
                         "(role, query_id, traverse)") from None


# The first chunk of a traverse; later chunk ends double, so a run that
# halts early draws at most max(this, 2 n_a) query noises, not the whole
# traverse's.
_FIRST_CHUNK = 4096

# One-traverse outcomes of up to _FIRST_CHUNK answers share slices of this.
_ONES = np.ones(_FIRST_CHUNK, dtype=np.int64)
_ONES.flags.writeable = False

# Bit generators whose ``advance(k)`` lands where k more float64 draws
# would: each such draw takes one 64-bit output. Philox's advance counts
# blocks of four outputs, and MT19937 and SFC64 have none.
_SKIPPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _skip_draws(rng: np.random.Generator, k: int) -> None:
    """Move ``rng`` past k float64 draws. ``advance`` also clears the spare
    32-bit output, which float draws leave alone, so it is put back."""
    bits = rng.bit_generator
    before = bits.state
    bits.advance(k)
    bits.state = {**bits.state, "has_uint32": before["has_uint32"],
                  "uinteger": before["uinteger"]}


def _cut(flags: np.ndarray, room: int) -> tuple[np.ndarray, int]:
    """``flags`` up to its ``room``-th positive, and the positives kept."""
    flag_pos = flags.nonzero()[0]
    if flag_pos.size >= room:
        return flags[:int(flag_pos[room - 1]) + 1], room
    return flags, flag_pos.size


def _outcome(ids: np.ndarray, evaluated: list, flagged: list,
             halt: HaltReason, r: float) -> SvtOutcome:
    """One outcome from each traverse's evaluated source rows and flags."""
    one = len(evaluated) == 1
    rows = evaluated[0] if one else np.concatenate(evaluated)
    flags = flagged[0] if one else np.concatenate(flagged)
    traverses = (_ONES[:flags.size] if one and flags.size <= _FIRST_CHUNK
                 else np.repeat(np.arange(1, len(evaluated) + 1),
                                [b.size for b in evaluated]))
    return SvtOutcome.trusted(answer_ids=ids[rows], flags=flags,
                              traverses=traverses, halt_reason=halt,
                              correction_used=r)


def run_svt(queries: QueryStream, cfg: SvtConfig, rng: np.random.Generator,
            noise_override: Optional[Callable] = None) -> SvtOutcome:
    """Run one mechanism invocation over a query stream.

    Each step of the outer loop is one traverse: the whole queue on the
    first, the negatives re-appended by the previous one after that, cut
    short by k_max, for at most ``max_traverses`` traverses (one without
    ``append``). The inner loop evaluates the traverse in chunks, each as
    a vector, and stops early at the c-th positive. A chunk is the whole
    traverse, except on a PCG64 generator without ``resample`` or
    ``noise_override``: there chunk ends start at ``_FIRST_CHUNK`` and
    double, and at the halt the query draws left unmade are skipped once,
    with ``advance``, so outcome and generator state are the same. Without
    either, a run of one traverse of at most one chunk and k_max queries
    skips both loops, with the same draws and bits. Draw order is fixed
    for reproducibility: one threshold draw up front, then query noise for
    each traverse in evaluation order; under ``resample``, threshold
    redraws happen per positive after the traverse's query draws. A
    ``noise_override`` replaces both noise sources with a deterministic
    callable ``(role, query_id, traverse) -> float`` where role is
    "threshold" (query_id -1, traverse = redraw index) or "query"; a value
    that is not finite raises ``ValueError`` naming the call.

    Ties (noisy score exactly equal to the corrected noisy threshold) are
    answered positively.
    """
    if len(queries) == 0:
        raise ValueError("empty query stream")
    if noise_override is not None:
        _check_override(noise_override)

    thr_dist, qry_dist, r = config_laws(cfg)
    if cfg.correction_override is not None:
        # Overrides of -0.0 and 0.0 compare equal and share a memo entry.
        r = float(cfg.correction_override)

    ids, scores, thresholds = queries.columns
    plain = not cfg.resample and noise_override is None
    last = cfg.max_traverses if cfg.append else 1
    # Chunks of a traverse end at first, 2 first, 4 first, ..., so a
    # traverse of at most first queries is one chunk. Only a generator with
    # an exact skip gets _FIRST_CHUNK: under resample the threshold redraws
    # follow the traverse's query draws, and an override draws nothing to
    # skip. Elsewhere first is k_max, which bounds every traverse.
    first = (_FIRST_CHUNK if plain and type(rng.bit_generator) in _SKIPPABLE
             else cfg.k_max)
    batch = queries.order
    if plain and last == 1 and batch.size <= min(first, cfg.k_max):
        rho = noise_mod.sample(thr_dist, rng)
        base = noise_mod.sample(qry_dist, rng, size=batch.size)
        base += scores[batch] - thresholds[batch]
        base -= r
        flags, n_c = _cut(base >= rho, cfg.c)
        halt = (HaltReason.POSITIVE_BUDGET if n_c == cfg.c
                else HaltReason.EXHAUSTED)
        return _outcome(ids, [batch[:flags.size]], [flags], halt, r)

    if noise_override is None:
        draw_threshold = partial(noise_mod.sample, thr_dist, rng)

        def draw_query(batch: np.ndarray, traverse: int) -> np.ndarray:
            return noise_mod.sample(qry_dist, rng, size=batch.size)
    else:
        def draw(role: str, query_id: int, traverse: int) -> float:
            value = float(noise_override(role, query_id, traverse))
            checks.finite(**{f"noise_override{role, query_id, traverse}":
                             value})
            return value

        redraws = (draw("threshold", -1, k) for k in itertools.count())
        draw_threshold = partial(next, redraws)

        def draw_query(batch: np.ndarray, traverse: int) -> np.ndarray:
            return np.array([draw("query", i, traverse)
                             for i in ids[batch].tolist()])

    evaluated: list[np.ndarray] = []
    flagged: list[np.ndarray] = []
    n_a = n_c = 0
    rho = draw_threshold()
    halt = HaltReason.EXHAUSTED

    for traverse in range(1, last + 1):
        if batch.size > cfg.k_max - n_a:
            batch, halt = batch[:cfg.k_max - n_a], HaltReason.QUERY_BUDGET
        parts: list[np.ndarray] = []
        drawn = 0
        while True:
            chunk = batch[drawn:max(2 * drawn, first)]
            drawn += chunk.size
            # Draw first: the sampler frees its temporaries before the gather.
            base = draw_query(chunk, traverse) + (scores[chunk]
                                                  - thresholds[chunk]) - r

            if cfg.resample:
                flags = np.zeros(chunk.size, dtype=bool)
                i = 0
                while i < chunk.size:
                    above = base[i:] >= rho
                    if not above.any():
                        break
                    hit = i + int(np.argmax(above))
                    flags[hit] = True
                    rho = draw_threshold()
                    i = hit + 1
            else:
                flags = base >= rho

            flags, positives = _cut(flags, cfg.c - n_c)
            n_c += positives
            if n_c == cfg.c:
                halt = HaltReason.POSITIVE_BUDGET
            parts.append(flags)
            if drawn == batch.size or halt is HaltReason.POSITIVE_BUDGET:
                break
        flags = parts[0] if len(parts) == 1 else np.concatenate(parts)
        evaluated.append(batch[:flags.size])
        flagged.append(flags)
        n_a += flags.size
        if halt is not HaltReason.EXHAUSTED or traverse == last:
            break
        batch = batch[~flags]
    if drawn < batch.size:
        _skip_draws(rng, batch.size - drawn)
    return _outcome(ids, evaluated, flagged, halt, r)
