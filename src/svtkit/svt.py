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
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import checks
from . import noise as noise_mod
from .allocation import Variant, calibrate, query_sensitivity
from .correction import CorrectionQuery, optimal_correction
from .noise import Kind, NoiseDist, sealed


class HaltReason(enum.Enum):
    POSITIVE_BUDGET = "positive-budget"
    QUERY_BUDGET = "query-budget"
    EXHAUSTED = "exhausted"


class QueryEntry(NamedTuple):
    query_id: int
    score: float
    threshold: float


def frozen(values, dtype) -> np.ndarray:
    """A read-only one-dimensional array of ``values`` as ``dtype``. An
    integer ``dtype`` takes only integers within its range and rejects
    anything else with ``ValueError``: a float id is never truncated. An
    array made here, from a list or by conversion, is :func:`sealed`; any
    other is :func:`_owned`."""
    array = np.asarray(values)
    if np.issubdtype(dtype, np.integer):
        if array.size and not (array.dtype.kind in "iu" and (
                np.can_cast(array.dtype, dtype)
                or array.max() <= np.iinfo(dtype).max)):
            raise ValueError(f"ids and other integer columns must be "
                             f"integers within {np.dtype(dtype)}, got "
                             f"{array.dtype} values")
    try:
        array = np.asarray(array, dtype=dtype)
    except OverflowError:  # a Python int beyond float range
        raise ValueError("float columns must be finite numbers") from None
    if array.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {array.shape}")
    if array is values or array.base is not None:
        return _owned(array)
    return sealed(array)


def _owned(array: np.ndarray) -> np.ndarray:
    """A record owns read-only columns: a view of ``array`` if it and the
    numpy array owning its memory are read-only, else of a sealed copy."""
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if array.flags.writeable or owner.flags.writeable or owner.base is not None:
        return sealed(array.copy())
    return array.view()


def _shared(threshold: float, size: int) -> np.ndarray:
    """One read-only threshold read as a column of ``size``, stride 0."""
    return np.ndarray((size,), float, frozen([threshold], float), strides=(0,))


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

    # Pickles and copies carry the fields only, and a pickle keeps no
    # read-only flag: the copy seals its arrays again.
    __getstate__ = noise_mod.field_state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(zip(state, map(_resealed, state.values())))


def _resealed(value):
    """An unpickled value with its arrays, alone or in a tuple, sealed."""
    if isinstance(value, tuple):
        return tuple(map(_resealed, value))
    return sealed(value) if isinstance(value, np.ndarray) else value


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
            thresholds = _shared(thresholds, ids.size)
        thresholds = frozen(thresholds, float)
        vars(self).update(columns=(ids, scores, thresholds),
                          order=sealed(np.arange(ids.size)))
        checks.unique_finite(ids, scores, thresholds)

    @classmethod
    def permuted(cls, ids: np.ndarray, scores: np.ndarray, threshold: float,
                 order: np.ndarray) -> "QueryStream":
        """The rows ``order`` of id and score columns that already meet the
        class's invariants (unique, finite), each query with ``threshold``;
        the columns and the order are :func:`_owned`, not checked."""
        return cls.trusted(columns=(_owned(ids), _owned(scores),
                                    _shared(threshold, ids.size)),
                           order=_owned(order))

    def _read(self, column: int) -> np.ndarray:
        values = self.columns[column][self.order]
        values.flags.writeable = False
        return values

    ids = property(lambda self: self._read(0))
    scores = property(lambda self: self._read(1))
    thresholds = property(lambda self: self._read(2))

    # The read-only ids and gaps (score less threshold) in stream order,
    # kept from the first read.
    _in_order = cached_property(lambda self: (
        self.ids, sealed(self.scores - self.thresholds)))

    # A pickle or copy carries one shared threshold (a stride-0 column) as
    # its value, and the copy reads it as one again.
    def __getstate__(self) -> dict:
        ids, scores, thresholds = self.columns
        if thresholds.strides == (0,) and thresholds.size:
            thresholds = float(thresholds[0])
        return {"columns": (ids, scores, thresholds), "order": self.order}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        ids, scores, thresholds = self.columns
        if isinstance(thresholds, float):
            vars(self)["columns"] = ids, scores, _shared(thresholds, ids.size)

    def __len__(self) -> int:
        return self.order.size

    def __iter__(self):
        return map(QueryEntry, self.ids.tolist(), self.scores.tolist(),
                   self.thresholds.tolist())


@dataclass(frozen=True)
class SvtConfig:
    """All mechanism parameters of one run.

    A config computes its noise laws and correction on its first run and
    keeps them, so a caller running one config many times reuses the object.

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

    # (threshold law, query law, correction r), computed on the first run,
    # and r as the one-block path's 0-d operand.
    _laws = cached_property(lambda c: noise_pair(c) + (correction_term(c),))
    _r = cached_property(lambda c: sealed(np.array(c._laws[2])))

    # Pickles and copies carry the fields only, so a config unpickled in
    # another process or on another host computes its laws there.
    __getstate__ = noise_mod.field_state


@dataclass(frozen=True, init=False, eq=False)
class SvtOutcome(Record):
    """One run's answers in evaluation order as aligned columns (queried
    id, flag, traverse). ``n_a`` (answers), ``n_c`` (positives) and
    ``positives`` (the flagged ids) are read off the columns. A run of
    several traverses keeps its stream's id column and evaluated rows
    instead, and ``positives`` gathers the flagged rows: the first read of
    either column builds both, sealed, and drops them. A one-block run
    keeps ``_prefix_of``, its stream's ids in order, whose first ``n_a`` it
    answered in traverse 1, and builds both columns from it alike.
    ``n_queries`` (not compared) is a run's stream length, None for one
    built from columns. A pickle carries the columns only."""

    n_queries = _prefix_of = None
    # Non-data descriptors: a column set on the instance shadows them.
    answer_ids: np.ndarray = cached_property(lambda self: self._build()[0])
    flags: np.ndarray
    traverses: np.ndarray = cached_property(lambda self: self._build()[1])
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
        parts = vars(self).get("_parts")
        if parts is None:
            return tuple(self.answer_ids[self.flags].tolist())
        ids, evaluated, flagged = parts
        return tuple(ids[np.concatenate([rows[f] for rows, f in zip(
            evaluated, flagged)])].tolist())

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        """Set ``answer_ids`` and ``traverses`` from the kept rows or the
        stream's ids, once."""
        # A one-block run answered its stream's first n_a ids in traverse 1.
        ids, evaluated, _ = vars(self).pop(
            "_parts", (self._prefix_of, [np.arange(self.flags.size)], None))
        answer_ids = sealed(ids[np.concatenate(evaluated)])
        traverses = sealed(np.repeat(np.arange(1, len(evaluated) + 1),
                                     [*map(len, evaluated)]))
        vars(self).update(answer_ids=answer_ids, traverses=traverses)
        return answer_ids, traverses

    def __getstate__(self) -> dict:
        return {name: getattr(self, name)
                for name in (*self._compared, "n_queries")}


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


# The first chunk of a traverse; later chunk ends double, so a run that
# halts early draws at most max(this, 2 n_a) query noises. Most early halts
# come within traverse 1's smaller opening chunk; a later traverse exists
# only after the whole stream was evaluated, so it keeps this first chunk.
_FIRST_CHUNK = 4096
_OPENING_CHUNK = 512

# One-traverse outcomes of up to _FIRST_CHUNK answers share slices of this.
_ONES = sealed(np.ones(_FIRST_CHUNK, dtype=np.int64))
_POSITIVE_BUDGET, _EXHAUSTED = HaltReason.POSITIVE_BUDGET, HaltReason.EXHAUSTED
_greater_equal, _new = np.greater_equal, object.__new__

# Bit generators whose ``advance(k)`` lands where k more float64 draws
# would: each such draw takes one 64-bit output. Philox's advance counts
# blocks of four outputs, and MT19937 and SFC64 have none.
_SKIPPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _skip_draws(rng: np.random.Generator, k: int) -> None:
    """Move ``rng`` past k float64 draws, if any. ``advance`` also clears
    the spare 32-bit output, which float draws leave alone, so a spare is
    put back."""
    if not k:
        return
    bits = rng.bit_generator
    before = bits.state
    bits.advance(k)  # leaves has_uint32 and uinteger at 0
    if before["has_uint32"] or before["uinteger"]:
        bits.state = {**bits.state, "has_uint32": before["has_uint32"],
                      "uinteger": before["uinteger"]}


def _outcome(ids: np.ndarray, evaluated: list, flagged: list,
             halt: HaltReason, r: float) -> SvtOutcome:
    """One outcome from each traverse's evaluated rows and sealed flags: one
    traverse's columns are built now, several traverses' on first read."""
    tail = dict(halt_reason=halt, correction_used=r)
    if len(evaluated) > 1:
        return SvtOutcome.trusted(flags=sealed(np.concatenate(flagged)),
                                  _parts=(ids, evaluated, flagged), **tail)
    n = flagged[0].size
    traverses = (_ONES[:n] if n <= _FIRST_CHUNK
                 else sealed(np.ones(n, dtype=np.int64)))
    return SvtOutcome.trusted(answer_ids=sealed(ids[evaluated[0]]),
                              flags=flagged[0], traverses=traverses, **tail)


def run_svt(queries: QueryStream, cfg: SvtConfig, rng: np.random.Generator,
            noise_override: Optional[Callable] = None) -> SvtOutcome:
    """Run one mechanism invocation over a query stream.

    The outer loop steps over traverses: the whole queue, then the
    negatives the previous traverse re-appended, cut short by k_max, at
    most ``max_traverses`` of them (one without ``append``). The inner loop
    steps over a traverse's chunks and stops at the c-th positive. A chunk
    step gathers its rows' gaps (score less threshold; one shared
    threshold, a stride-0 column, is read as a slice), adds them and a
    non-zero r to the query noise in place, and counts the positives
    before it looks for the c-th. A chunk is the whole traverse, except on
    a PCG64 generator without ``resample`` (its redraws follow the chunk's
    query draws) or ``noise_override`` (nothing to skip): there chunk ends
    start at ``_FIRST_CHUNK`` and double, traverse 1 opens with an
    ``_OPENING_CHUNK``, and the query draws a halt leaves unmade are
    skipped once, with ``advance``, so outcome and generator state are the
    same. Without either, one traverse of at most ``_FIRST_CHUNK`` and
    k_max queries skips both loops: rho and the query noise are one block
    of draws, bit for bit, and the ids and gaps come in stream order from
    the stream, which keeps them from its first such run; its operands r
    and the laws' scale and location are read-only 0-d arrays.
    :class:`SvtOutcome` says which outcome columns are built on first
    read. ``rng`` must be a ``numpy.random.Generator`` (``ValueError``
    otherwise). Draw order is fixed for reproducibility: one threshold
    draw up front, then query noise for each traverse in evaluation order;
    under ``resample``, threshold redraws happen per positive after the
    chunk's query draws. So a run of one traverse without ``resample`` or
    ``noise_override`` and with k_max at least the stream's n moves
    ``rng`` by exactly 1 + n uniforms, halted or not, as ``run_trials``
    draws them for whole blocks of such runs.
    A ``noise_override`` replaces both noise sources with a deterministic
    callable ``(role, query_id, traverse) -> float`` where role is
    "threshold" (query_id -1, traverse = redraw index) or "query"; a value
    that is not finite raises ``ValueError`` naming the call.

    Ties (noisy score exactly equal to the corrected noisy threshold) are
    answered positively.
    """
    if not isinstance(rng, np.random.Generator):
        checks.instance(np.random.Generator, rng=rng)
    batch = queries.order
    if batch.size == 0:
        raise ValueError("empty query stream")
    if noise_override is not None:
        try:
            inspect.signature(noise_override).bind("threshold", -1, 0)
        except TypeError:
            raise ValueError("noise_override must be callable as "
                             "(role, query_id, traverse)") from None

    thr_dist, qry_dist, r = cfg._laws
    ids, scores, thresholds = queries.columns
    plain = not cfg.resample and noise_override is None
    last = cfg.max_traverses if cfg.append else 1
    if plain and last == 1 and _FIRST_CHUNK >= batch.size <= cfg.k_max:
        stream_ids, gaps = queries._in_order
        u = rng.random(1 + batch.size)
        rho = noise_mod.from_uniform(thr_dist, u.item(0))
        base = noise_mod.from_uniform(qry_dist, u[1:])
        base += gaps
        if r:
            base -= cfg._r
        flags = _greater_equal(base, rho)
        flags.setflags(False)
        hits = flags.nonzero()[0]
        n, halt = batch.size, _EXHAUSTED
        if hits.size >= cfg.c:
            n, halt = hits.item(cfg.c - 1) + 1, _POSITIVE_BUDGET
        outcome = _new(SvtOutcome)
        vars(outcome).update(_prefix_of=stream_ids, flags=flags[:n],
                             halt_reason=halt, correction_used=r,
                             n_queries=batch.size)
        return outcome

    skippable = plain and type(rng.bit_generator) in _SKIPPABLE
    first = _FIRST_CHUNK if skippable else cfg.k_max
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
            chunk = batch[drawn:_OPENING_CHUNK if skippable and traverse == 1
                          and not drawn else max(2 * drawn, first)]
            drawn += chunk.size
            # Draw first: the sampler frees its temporaries before the gather.
            base, gap = draw_query(chunk, traverse), scores[chunk]
            gap -= (thresholds[:chunk.size] if thresholds.strides == (0,)
                    else thresholds[chunk])
            base += gap
            if r:  # x - 0.0 differs from x only in a zero's sign
                base -= r
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
            flags, positives = sealed(flags), np.count_nonzero(flags)
            if positives >= cfg.c - n_c:  # cut at the c-th positive
                positives = cfg.c - n_c
                flags = flags[:flags.nonzero()[0].item(positives - 1) + 1]
                halt = HaltReason.POSITIVE_BUDGET
            n_c += positives
            parts.append(flags)
            if drawn == batch.size or halt is HaltReason.POSITIVE_BUDGET:
                break
        flags = parts[0] if len(parts) == 1 else sealed(np.concatenate(parts))
        evaluated.append(batch[:flags.size])
        flagged.append(flags)
        n_a += flags.size
        if halt is not HaltReason.EXHAUSTED or traverse == last:
            break
        batch = batch[~flags]
    _skip_draws(rng, batch.size - drawn)
    outcome = _outcome(ids, evaluated, flagged, halt, r)
    vars(outcome)["n_queries"] = queries.order.size
    return outcome


@dataclass(frozen=True, init=False, eq=False)
class TrialRecord(Record):
    """The runs of :func:`run_trials`, all read-only: ``ids``, the stream's
    ids in order; ``flags``, one row of n per trial, False past the
    trial's ``n_a`` answers; per trial ``n_a``, ``n_c`` and
    ``halt_reasons`` (a ``HaltReason`` each); and the runs' r."""

    ids: np.ndarray
    flags: np.ndarray
    n_a: np.ndarray
    n_c: np.ndarray
    halt_reasons: np.ndarray
    correction_used: float


_TRIAL_BLOCK = 1 << 18  # uniforms per block of run_trials
_HALTS = sealed(np.array([_EXHAUSTED, _POSITIVE_BUDGET], dtype=object))


def run_trials(stream: QueryStream, cfg: SvtConfig, rng: np.random.Generator,
               trials: int) -> TrialRecord:
    """``trials`` runs of ``run_svt(stream, cfg, rng)``, made as blocks of
    whole trials.

    A plain one-traverse run of ``run_svt`` takes exactly 1 + n uniforms
    of ``rng`` (n the stream's length), halted or not: rho from the first,
    the query noise from the rest. So T runs are one (T, 1 + n) block of
    uniforms in row order, drawn here in blocks of at most about 2^18
    uniforms. rho is transformed as a column and the query noise in place,
    and the stream's ids and gaps are read once. Ids, flags, n_a, n_c,
    halt reasons and the generator's end state are those of the loop of
    ``run_svt`` calls, bit for bit. Other runs do not keep that draw order
    or are not plain, so ``resample``, more than one traverse, ``k_max``
    below n and a ``correction_override`` raise ``ValueError``, as do an
    empty stream, ``trials`` below 1 and an ``rng`` that is not a
    ``numpy.random.Generator``. :func:`metrics.failure_rate` checks the
    record.
    """
    checks.count(1, trials=trials)
    if not isinstance(rng, np.random.Generator):
        checks.instance(np.random.Generator, rng=rng)
    n = len(stream)
    for refused, name in ((n == 0, "an empty query stream"),
                          (cfg.resample, "resample"),
                          (cfg.append and cfg.max_traverses > 1,
                           "more than one traverse"),
                          (cfg.k_max < n, f"k_max below the {n} queries"),
                          (cfg.correction_override is not None,
                           "a correction_override")):
        if refused:
            raise ValueError(f"run_trials runs plain one-traverse trials of "
                             f"a stream, got {name}")
    thr_dist, qry_dist, r = cfg._laws
    ids, gaps = stream._in_order
    gaps = np.append(0.0, gaps)  # under column 0, rho's, copied out first
    flags = np.empty((trials, n), dtype=bool)
    n_a, n_c = np.full(trials, n), np.empty(trials, np.int64)
    step = max(1, _TRIAL_BLOCK // (1 + n))
    for start in range(0, trials, step):
        u = rng.random((min(step, trials - start), 1 + n))
        rho = noise_mod.from_uniform(thr_dist, u[:, 0].copy())
        # The whole block: the query law and the gaps read one contiguous
        # array, and column 0 is left unread.
        base = noise_mod.from_uniform(qry_dist, u)
        base += gaps
        if r:
            base -= cfg._r
        rows = slice(start, start + len(u))
        block = np.greater_equal(base[:, 1:], rho[:, None], out=flags[rows])
        hits = np.flatnonzero(block)
        # Where each trial's positives start in hits, and where they end.
        first = hits.searchsorted(np.arange(0, block.size + 1, n))
        np.minimum(np.diff(first), cfg.c, out=n_c[rows])
        halted = np.flatnonzero(n_c[rows] == cfg.c)  # at the c-th positive
        n_a[start + halted] = hits[first[halted] + cfg.c - 1] % n + 1
        block &= np.arange(n) < n_a[rows, None]
    return TrialRecord.trusted(
        ids=ids, flags=sealed(flags), n_a=sealed(n_a), n_c=sealed(n_c),
        halt_reasons=sealed(_HALTS[(n_c == cfg.c).view(np.int8)]),
        correction_used=r)
