"""Mechanism engine tests.

Noise overrides make the engine deterministic, which pins down the
comparison rule, halting priorities, appending, resampling, and the
correction defaults; Monte Carlo runs then tie the noisy behavior back to
the analytical difference law and the privacy bound.
"""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from svtkit import allocation, cli, correction, data, noise, svt
from svtkit.allocation import Variant
from svtkit.svt import (HaltReason, QueryStream, SvtConfig, SvtOutcome,
                        correction_term, effective_lambda, noise_pair,
                        privacy_cost, run_svt)

ZERO = lambda role, qid, trav: 0.0


def cfg_with(**kw) -> SvtConfig:
    base = dict(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=100,
                variant=Variant.EXP_NO_CORR)
    base.update(kw)
    return SvtConfig(**base)


def stream(scores, threshold=500.0) -> QueryStream:
    return QueryStream(range(1, len(scores) + 1), scores, threshold)


def test_noiseless_comparison():
    out = run_svt(stream([600.0, 400.0]), cfg_with(c=2),
                  np.random.default_rng(0), noise_override=ZERO)
    assert list(zip(out.answer_ids.tolist(), out.flags.tolist())) == [
        (1, True), (2, False)]
    assert out.positives == (1,)
    assert out.halt_reason is HaltReason.EXHAUSTED


def test_tie_is_answered_positively():
    out = run_svt(stream([500.0]), cfg_with(), np.random.default_rng(0),
                  noise_override=ZERO)
    assert out.flags[0]


def test_first_positive_halts_when_c_is_one():
    out = run_svt(stream([900.0, 900.0, 100.0]), cfg_with(),
                  np.random.default_rng(0), noise_override=ZERO)
    assert out.halt_reason is HaltReason.POSITIVE_BUDGET
    assert out.n_c == 1
    assert out.n_a == 1
    assert out.answer_ids.size == 1


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        run_svt(QueryStream([], [], []), cfg_with(), np.random.default_rng(0))


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        QueryStream([1, 1], [1.0, 2.0], 0.0)


def test_wrong_arity_override_rejected():
    with pytest.raises(ValueError):
        run_svt(stream([1.0]), cfg_with(), np.random.default_rng(0),
                noise_override=lambda role: 0.0)


def test_query_budget_halt_with_pending_work():
    out = run_svt(stream([0.0, 0.0, 0.0]), cfg_with(k_max=2),
                  np.random.default_rng(0), noise_override=ZERO)
    assert out.halt_reason is HaltReason.QUERY_BUDGET
    assert out.n_a == 2


def test_drained_queue_wins_over_query_budget():
    """When the last evaluation both drains the queue and spends the final
    evaluation, the run is exhausted, not budget-cut."""
    out = run_svt(stream([0.0, 0.0, 0.0]), cfg_with(k_max=3),
                  np.random.default_rng(0), noise_override=ZERO)
    assert out.halt_reason is HaltReason.EXHAUSTED
    assert out.n_a == 3


def test_append_re_enqueues_until_max_traverses():
    out = run_svt(stream([0.0, 0.0]), cfg_with(append=True, max_traverses=3),
                  np.random.default_rng(0), noise_override=ZERO)
    assert out.halt_reason is HaltReason.EXHAUSTED
    assert out.n_a == 6
    per_query = {}
    for qid, trav in zip(out.answer_ids.tolist(), out.traverses.tolist()):
        per_query.setdefault(qid, []).append(trav)
    assert per_query == {1: [1, 2, 3], 2: [1, 2, 3]}
    # FIFO: traverses interleave as 1 1 2 2 3 3
    assert out.traverses.tolist() == [1, 1, 2, 2, 3, 3]


def test_append_off_evaluates_each_query_once():
    out = run_svt(stream([0.0, 0.0]), cfg_with(), np.random.default_rng(0),
                  noise_override=ZERO)
    assert out.n_a == 2


def test_every_evaluation_counts():
    """n_a equals the number of emitted answers in any halting mode."""
    for scores, kw in [([0.0] * 5, dict(append=True, max_traverses=4, k_max=11)),
                       ([900.0, 0.0], dict(c=1)),
                       ([0.0, 900.0, 900.0], dict(c=2))]:
        out = run_svt(stream(scores), cfg_with(**kw),
                      np.random.default_rng(0), noise_override=ZERO)
        assert out.n_a == out.answer_ids.size == out.traverses.size
        assert out.n_a <= cfg_with(**kw).k_max


def test_positives_preserve_emission_order():
    out = run_svt(stream([900.0, 100.0, 800.0, 700.0]), cfg_with(c=3),
                  np.random.default_rng(0), noise_override=ZERO)
    assert out.positives == (1, 3, 4)
    assert out.n_c == 3


def test_single_threshold_draw_without_resample():
    calls = []

    def record(role, qid, trav):
        calls.append((role, qid, trav))
        return 0.0

    run_svt(stream([0.0, 0.0]), cfg_with(append=True, max_traverses=3),
            np.random.default_rng(0), noise_override=record)
    threshold_calls = [c for c in calls if c[0] == "threshold"]
    assert threshold_calls == [("threshold", -1, 0)]


def test_resample_redraws_threshold_after_positive():
    """A scripted redraw pushes the threshold out of reach, so the second
    high scorer is rejected: direct evidence the redraw is used."""

    def scripted(role, qid, trav):
        if role == "threshold":
            return 0.0 if trav == 0 else 1000.0
        return 0.0

    out = run_svt(stream([510.0, 510.0, 490.0]), cfg_with(c=2, resample=True),
                  np.random.default_rng(0), noise_override=scripted)
    assert out.flags.tolist() == [True, False, False]
    assert out.halt_reason is HaltReason.EXHAUSTED

    out_plain = run_svt(stream([510.0, 510.0, 490.0]), cfg_with(c=2),
                        np.random.default_rng(0), noise_override=scripted)
    assert out_plain.flags.tolist() == [True, True]
    assert out_plain.halt_reason is HaltReason.POSITIVE_BUDGET


def test_determinism_same_seed_same_outcome():
    cfg = cfg_with(c=5, k_max=300, variant=Variant.EXP_MEAN_CORR, append=True,
                   max_traverses=2)
    s = stream(list(np.linspace(400, 600, 40)))
    a = run_svt(s, cfg, np.random.default_rng(123))
    b = run_svt(s, cfg, np.random.default_rng(123))
    assert a == b
    c = run_svt(s, cfg, np.random.default_rng(124))
    assert a != c  # same config, different stream: almost surely different


def test_raising_a_score_never_flips_to_negative():
    """With all noise frozen, a higher score can only keep or gain the flag."""
    rng = np.random.default_rng(77)
    fixed = {}

    def frozen(role, qid, trav):
        return fixed.setdefault((role, qid, trav),
                                float(rng.standard_normal() * 50))

    cfg = cfg_with(c=4, k_max=50)
    scores = [480.0, 505.0, 520.0, 495.0, 510.0]
    base = run_svt(stream(scores), cfg, np.random.default_rng(0),
                   noise_override=frozen)
    for bump_idx in range(len(scores)):
        bumped = list(scores)
        bumped[bump_idx] += 30.0
        out = run_svt(stream(bumped), cfg, np.random.default_rng(0),
                      noise_override=frozen)
        flags = dict(zip(out.answer_ids.tolist(), out.flags.tolist()))
        base_flags = dict(zip(base.answer_ids.tolist(), base.flags.tolist()))
        qid = bump_idx + 1
        if base_flags.get(qid) and qid in flags:
            assert flags[qid]


def test_flag_probability_over_traverses_exact_two_point_law():
    """With +-1 query noise (probability p up, 1-p down) and zero threshold
    noise, a borderline query is flagged within t traverses with
    probability exactly 1 - (1-p)^t. Enumerating all noise sequences gives
    the engine's exact flag probability, no sampling error."""
    p = 0.3
    for t in (1, 2, 5):
        total = 0.0
        for bits in range(2 ** t):
            seq = [(1.0 if (bits >> i) & 1 else -1.0) for i in range(t)]
            weight = math.prod(p if s > 0 else 1 - p for s in seq)

            def scripted(role, qid, trav, seq=seq):
                return 0.0 if role == "threshold" else seq[trav - 1]

            out = run_svt(stream([500.0]),
                          cfg_with(append=True, max_traverses=t, k_max=t + 1),
                          np.random.default_rng(0), noise_override=scripted)
            if out.n_c == 1:
                total += weight
        assert total == pytest.approx(1 - (1 - p) ** t, abs=1e-12)


def test_effective_lambda_values():
    assert effective_lambda(cfg_with(eps2=0.1, c=50)) == pytest.approx(0.001)
    assert effective_lambda(cfg_with(eps2=0.1, c=50, monotonic=True)) == pytest.approx(0.002)
    assert effective_lambda(cfg_with(eps2=2.0, c=1)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        effective_lambda(cfg_with(variant=Variant.LAP))


def _dummy_outcome() -> SvtOutcome:
    return SvtOutcome(answer_ids=(), flags=(), traverses=(),
                      halt_reason=HaltReason.EXHAUSTED, correction_used=0.0)


def test_privacy_cost_values():
    out = _dummy_outcome()
    assert privacy_cost(cfg_with(eps1=0.3, eps2=0.7), out) == (1.0, 0.0)
    assert privacy_cost(cfg_with(eps1=0.1, eps2=0.5, c=5, resample=True),
                        out)[0] == pytest.approx(1.0)
    plain = privacy_cost(cfg_with(eps1=0.2, eps2=0.9), out)
    resampled = privacy_cost(cfg_with(eps1=0.2, eps2=0.9, resample=True), out)
    assert plain == resampled  # c = 1 collapses both formulas
    eps, dp = privacy_cost(cfg_with(variant=Variant.GAU, delta_dp=1e-4), out)
    assert dp == 1e-4


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_with(eps1=0.0)
    with pytest.raises(ValueError):
        cfg_with(c=0)
    with pytest.raises(ValueError):
        cfg_with(alpha=-0.5)
    with pytest.raises(ValueError):
        cfg_with(variant=Variant.GAU)  # missing delta_dp
    with pytest.raises(ValueError):
        cfg_with(variant=Variant.GAU, delta_dp=1.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, bad", [
    ("query", dict(alpha=NAN)),
    ("query", dict(alpha=INF)),
    ("query", dict(b=INF)),
    ("query", dict(lam=INF)),
    ("config", dict(alpha=NAN)),
    ("config", dict(alpha=INF)),
    ("config", dict(eps1=INF)),
    ("config", dict(eps2=INF)),
    ("config", dict(delta=INF)),
    ("config", dict(eps1=NAN)),
])
def test_non_finite_input_rejected(build, bad):
    with pytest.raises(ValueError):
        if build == "query":
            correction.CorrectionQuery(**{**dict(b=1.0, lam=1.0, alpha=0.0,
                                                 k=10), **bad})
        else:
            cfg_with(**bad)


@pytest.mark.parametrize("monotonic", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_single_calibration_source(variant, monotonic):
    """Scales, variance and correction inputs all derive from noise_pair."""
    cfg = cfg_with(variant=variant, monotonic=monotonic, delta=2.0, eps1=0.3,
                   eps2=0.7, c=5, alpha=1.5, k_est=20,
                   delta_dp=1e-4 if variant is Variant.GAU else None)
    thr, qry = noise_pair(cfg)
    sensitivity = (cfg.c if monotonic else 2 * cfg.c) * cfg.delta
    kappa = (allocation.gaussian_kappa(cfg.delta_dp)
             if variant is Variant.GAU else 1.0)
    assert thr.scale == pytest.approx(kappa * cfg.delta / cfg.eps1, rel=1e-15)
    assert qry.scale == pytest.approx(kappa * sensitivity / cfg.eps2, rel=1e-15)
    assert allocation.comparison_variance(
        variant, cfg.eps1, cfg.eps2, cfg.c, cfg.delta, monotonic,
        cfg.delta_dp) == thr.variance() + qry.variance()
    if variant in (Variant.GUM, Variant.EXP_MEAN_CORR):
        assert correction_term(cfg) == qry.mean()
    if variant is Variant.EXP_OPT_CORR:
        lam = cfg.eps2 / sensitivity
        assert effective_lambda(cfg) == lam
        expected, _ = correction.optimal_correction(correction.CorrectionQuery(
            b=cfg.delta / cfg.eps1, lam=lam, alpha=cfg.alpha, k=cfg.k_est))
        assert correction_term(cfg) == expected


def test_correction_defaults_per_variant():
    for variant in (Variant.LAP, Variant.EXP_NO_CORR):
        assert correction_term(cfg_with(variant=variant)) == 0.0
    assert correction_term(cfg_with(variant=Variant.GAU, delta_dp=1e-4)) == 0.0
    # query scale at eps2=0.5, c=1, delta=1, non-monotonic: 2*1*1/0.5 = 4
    assert correction_term(cfg_with(variant=Variant.EXP_MEAN_CORR)) == pytest.approx(4.0)
    assert correction_term(cfg_with(variant=Variant.GUM)) == pytest.approx(noise.EULER_GAMMA * 4.0)
    opt = correction_term(cfg_with(variant=Variant.EXP_OPT_CORR, k_est=50))
    expected, _ = correction.optimal_correction(
        correction.CorrectionQuery(b=2.0, lam=0.25, alpha=0.0, k=50))
    assert opt == expected


def test_correction_override_wins_even_at_zero():
    cfg = cfg_with(variant=Variant.EXP_MEAN_CORR, correction_override=0.0)
    assert correction_term(cfg) == 0.0
    out = run_svt(stream([500.0]), cfg, np.random.default_rng(0),
                  noise_override=ZERO)
    assert out.correction_used == 0.0
    assert out.flags[0]


def test_larger_correction_never_gains_positives():
    """n_c is nonincreasing in the correction term, other things equal."""
    scores = list(np.linspace(460, 540, 30))
    counts = []
    for r in (0.0, 2.0, 8.0, 32.0):
        cfg = cfg_with(c=30, k_max=30, correction_override=r)
        out = run_svt(stream(scores), cfg, np.random.default_rng(5))
        counts.append(out.n_c)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_noise_pair_laws():
    thr, qry = noise_pair(cfg_with(eps1=0.5, eps2=0.25, c=2))
    assert thr.kind.value == "laplace" and thr.scale == pytest.approx(2.0)
    assert qry.kind.value == "exponential" and qry.scale == pytest.approx(16.0)
    thr, qry = noise_pair(cfg_with(variant=Variant.GUM, eps2=0.5, c=1,
                                   monotonic=True))
    assert qry.kind.value == "gumbel" and qry.scale == pytest.approx(2.0)
    thr, qry = noise_pair(cfg_with(variant=Variant.GAU, delta_dp=1e-4))
    assert thr.kind.value == "gaussian" and qry.kind.value == "gaussian"


def test_flag_rate_matches_analytical_difference_law():
    """A borderline uncorrected query is flagged iff Exp - Lap >= 0; the
    empirical rate over 1e5 runs matches 1 - Gamma(0) within 3 stderr."""
    cfg = cfg_with()
    s = stream([500.0])
    n = 100_000
    root = np.random.default_rng(2024)
    seeds = root.spawn(n)
    hits = sum(run_svt(s, cfg, child).n_c for child in seeds)
    p = correction.difference_sf(0.0, b=2.0, lam=0.25)
    stderr = math.sqrt(p * (1 - p) / n)
    assert hits / n == pytest.approx(p, abs=3 * stderr)


def test_empirical_privacy_ratio_single_comparison():
    """Worst-case neighboring scores q and q + delta: the flag-probability
    ratio stays below exp(eps1 + eps2/c) up to Monte-Carlo noise."""
    cfg = cfg_with()
    n = 50_000
    flags = {}
    for label, score in (("low", 500.0), ("high", 501.0)):
        queries = stream([score])  # immutable: every run sees this input
        root = np.random.default_rng(99)  # shared noise: paired comparison
        flags[label] = sum(run_svt(queries, cfg, child).n_c
                           for child in root.spawn(n))
    p_low = flags["low"] / n
    p_high = flags["high"] / n
    ratio = p_high / p_low
    rel_err = math.sqrt((1 - p_low) / (p_low * n) + (1 - p_high) / (p_high * n))
    bound = math.exp(cfg.eps1 + cfg.eps2 / cfg.c)
    assert ratio <= bound * (1 + 3 * rel_err)


def test_traverse_column_is_shared_and_read_only():
    """A one-traverse outcome's traverse column is a read-only slice of one
    shared array: writing to it raises, and a later run's column is intact."""
    cfg = cfg_with(c=3)
    queries = stream([400.0, 600.0, 450.0])
    first = run_svt(queries, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        first.traverses[0] = 2
    with pytest.raises(ValueError):
        first.traverses.flags.writeable = True
    later = run_svt(queries, cfg, np.random.default_rng(1))
    assert later.traverses.tolist() == [1] * later.n_a == [1, 1, 1]


SEALED_RUNS = {
    "straight path": (dict(c=3), 60, np.random.PCG64),
    "one traverse, one chunk": (dict(c=3, resample=True), 60, np.random.PCG64),
    "one traverse, two chunks": (dict(c=6000), 6000, np.random.PCG64),
    "one traverse past the shared column": (dict(c=6000), 6000,
                                            np.random.MT19937),
    "several traverses": (dict(c=60, append=True, max_traverses=3), 60,
                          np.random.PCG64),
}


@pytest.mark.parametrize("kw, n, bit_generator", SEALED_RUNS.values(),
                         ids=SEALED_RUNS.keys())
def test_outcome_columns_cannot_be_made_writable(kw, n, bit_generator):
    """No column of a run's outcome can be written or made writable again:
    each is a view of an array marked read-only before it was handed out."""
    scores = np.random.default_rng(2).normal(500.0, 3.0, n).tolist()
    cfg = cfg_with(k_max=3 * n, **kw)
    out = run_svt(stream(scores), cfg, np.random.Generator(bit_generator(7)))
    assert ("_parts" in vars(out)) == cfg.append  # columns wait for a read
    assert out.n_a > (svt._FIRST_CHUNK if n > svt._FIRST_CHUNK else 0)
    assert (out.traverses.max() > 1) == cfg.append
    for column in (out.answer_ids, out.flags, out.traverses):
        with pytest.raises(ValueError):
            column[0] = column[-1]
        with pytest.raises(ValueError):
            column.flags.writeable = True
    assert out == run_svt(stream(scores), cfg,
                          np.random.Generator(bit_generator(7)))


@pytest.mark.parametrize("sealed", [True, False],
                         ids=["sealed columns", "writable columns"])
def test_one_block_outcome_columns_cannot_be_made_writable(sealed):
    """On a stream's first one-block run and on later ones, over lists or
    over a caller's writable arrays, each column of the outcome is a view
    of an array marked read-only before it was handed out, and the runs
    leave the stream's reads as they were."""
    ids = np.arange(1, 61)
    scores = np.random.default_rng(2).normal(500.0, 3.0, ids.size)
    queries = (QueryStream(ids.tolist(), scores.tolist(), 500.0) if sealed
               else QueryStream(ids, scores, 500.0))
    rng = np.random.default_rng(7)
    for _ in range(3):
        out = run_svt(queries, cfg_with(c=3, k_max=60), rng)
        for column in (out.answer_ids, out.flags, out.traverses):
            with pytest.raises(ValueError):
                column[0] = column[-1]
            with pytest.raises(ValueError):
                column.flags.writeable = True
    assert queries.ids.tolist() == ids.tolist()
    assert queries.scores.tolist() == scores.tolist()


@pytest.mark.parametrize("column", [1, 2], ids=["scores", "thresholds"])
def test_one_block_run_sees_no_write_to_a_callers_column(column):
    """A stream over a caller's writable array holds a copy of it, so a
    write made after construction is seen neither by the stream's reads nor
    by a later run: query 1 rising 10^6 above its threshold, or query 3
    falling below its, leaves query 3 the one positive."""
    columns = [np.array([1, 2, 3]), np.array([0.0, 0.0, 1e6]),
               np.full(3, 500.0)]
    queries = QueryStream(*columns)
    cfg = cfg_with(k_max=3)
    first = run_svt(queries, cfg, np.random.default_rng(0))
    assert first.positives == (3,)
    if column == 1:
        columns[1][0] = 1e6
    else:
        columns[2][2] = 2e6
    assert queries.columns[column].tolist() != columns[column].tolist()
    out = run_svt(queries, cfg, np.random.default_rng(0))
    assert out.positives == (3,) and out == first


def test_stream_equality_does_not_depend_on_kept_reads():
    """``==`` compares the reads of streams alike before and after a run
    keeps their ids and gaps, and against a stream that has kept none."""
    ids, scores = [3, 1, 2], [510.0, 490.0, 505.0]
    ran, fresh = (QueryStream(ids, scores, 500.0) for _ in range(2))
    writable = QueryStream(np.array(ids), np.array(scores), 500.0)
    assert ran == fresh == writable
    run_svt(ran, cfg_with(k_max=3), np.random.default_rng(0))
    run_svt(writable, cfg_with(k_max=3), np.random.default_rng(0))
    assert ran._in_order is ran._in_order
    assert writable._in_order is writable._in_order
    assert "_in_order" not in vars(fresh)
    assert ran == fresh == writable and fresh == ran and writable == ran
    assert ran != QueryStream(ids, [510.0, 490.0, 506.0], 500.0)


def test_library_built_streams_keep_their_reads():
    """The streams the harness and the benchmark run many times keep their
    ids and gaps from their first run; so does one over a permutation array
    a caller can write, which the stream copied."""
    ds = data.gen_zipf(50)
    for queries in (cli.near_threshold_stream(50, 1000.0, 10.0),
                    data.shuffle_and_stream(ds, np.random.default_rng(1)),
                    QueryStream.permuted(ds.ids, ds.scores, ds.threshold,
                                         svt.sealed(np.arange(50)))):
        assert queries._in_order is queries._in_order
        ids, gaps = queries._in_order
        assert ids.tolist() == queries.ids.tolist()
        assert gaps.tolist() == (queries.scores - queries.thresholds).tolist()
    order = np.arange(50)
    queries = QueryStream.permuted(ds.ids, ds.scores, ds.threshold, order)
    assert not np.shares_memory(queries.order, order)
    assert queries._in_order is queries._in_order


@pytest.mark.parametrize("field", ["c", "k_max", "max_traverses", "k_est"])
@pytest.mark.parametrize("value", [1.5, 2.0, NAN, INF, "3"])
def test_count_fields_must_be_integers(field, value):
    with pytest.raises(ValueError):
        cfg_with(**{field: value})


def test_count_fields_accept_numpy_integers():
    cfg = cfg_with(c=np.int64(2), k_max=np.int32(10), max_traverses=np.int64(3),
                   k_est=np.uint8(4), append=True)
    out = run_svt(stream([600.0, 400.0, 550.0]), cfg, np.random.default_rng(0))
    assert out.n_a <= 10


# --- the per-config laws -----------------------------------------------------

MEMO_RUNS = [dict(), dict(resample=True, c=3),
             dict(append=True, max_traverses=4, c=3),
             dict(append=True, max_traverses=3, resample=True, c=2)]


def memo_cfg(variant, kw):
    return cfg_with(variant=variant, k_max=60, k_est=20, alpha=2.0,
                    delta_dp=0.01 if variant is Variant.GAU else None, **kw)


def memo_stream():
    scores = np.random.default_rng(5).normal(500.0, 6.0, 25)
    return stream(scores.tolist())


@pytest.mark.parametrize("kw", MEMO_RUNS)
@pytest.mark.parametrize("variant", list(Variant))
def test_laws_cold_warm_and_twin_runs_agree(variant, kw):
    cfg, twin, s = memo_cfg(variant, kw), memo_cfg(variant, kw), memo_stream()
    cold = run_svt(s, cfg, np.random.default_rng(11))
    assert "_laws" in vars(cfg) and "_laws" not in vars(twin)
    warm = run_svt(s, cfg, np.random.default_rng(11))
    fresh = run_svt(s, twin, np.random.default_rng(11))
    assert cold == warm == fresh
    assert cold.correction_used == correction_term(cfg)
    assert all(o.traverses.dtype == np.int64 for o in (cold, warm, fresh))


def test_config_computes_its_laws_once(monkeypatch):
    """One config computes its laws on its first run only; an equal twin
    computes its own."""
    cfg = memo_cfg(Variant.EXP_OPT_CORR, {})
    calls = []
    real = svt.correction_term
    monkeypatch.setattr(svt, "correction_term",
                        lambda c: calls.append(c) or real(c))
    for seed in range(5):
        run_svt(memo_stream(), cfg, np.random.default_rng(seed))
    assert len(calls) == 1 and calls[0] is cfg
    twin = memo_cfg(Variant.EXP_OPT_CORR, {})
    for seed in range(2):
        run_svt(memo_stream(), twin, np.random.default_rng(seed))
    assert len(calls) == 2 and calls[1] is twin
    assert cfg._laws == twin._laws == noise_pair(cfg) + (real(cfg),)


def test_laws_keep_override_zero_apart_from_none():
    base = dict(variant=Variant.EXP_MEAN_CORR)
    plain, zero = cfg_with(**base), cfg_with(correction_override=0.0, **base)
    r_plain = run_svt(stream([500.0]), plain, np.random.default_rng(1)).correction_used
    r_zero = run_svt(stream([500.0]), zero, np.random.default_rng(1)).correction_used
    assert r_plain == noise_pair(plain)[1].mean() and r_zero == 0.0
    assert plain._laws[2] == r_plain and zero._laws[2] == r_zero
    negative = run_svt(stream([500.0]), cfg_with(correction_override=-0.0, **base),
                       np.random.default_rng(1)).correction_used
    assert math.copysign(1.0, negative) == -1.0


def test_replaced_config_computes_its_own_correction():
    cfg = memo_cfg(Variant.EXP_OPT_CORR, {})
    run_svt(memo_stream(), cfg, np.random.default_rng(0))
    moved = dataclasses.replace(cfg, alpha=7.0)
    assert "_laws" not in vars(moved)
    out = run_svt(memo_stream(), moved, np.random.default_rng(0))
    assert out.correction_used == correction_term(moved)
    assert out.correction_used != correction_term(cfg)
    assert moved._laws[2] == correction_term(moved)


def test_sweep_computes_each_cell_correction_once(monkeypatch):
    """A sweep's configs come from ``cli._cell_config``, one per cell key,
    so the corrections of a sweep's cells are computed once per key,
    across repetitions and across sweeps."""
    calls = []
    real = svt.correction_term
    monkeypatch.setattr(svt, "correction_term",
                        lambda c: calls.append(c) or real(c))
    cfg = cli.ExperimentConfig(dataset="zipf", variants=cli.VARIANT_TOKENS,
                               eps_values=(0.5, 1.0), traverses=(1, 2),
                               repetitions=2, append=True, c=5, n_items=200)
    cli._cell_config.cache_clear()
    cli.run_sweep(cfg)
    keys = {(eps, token, trav) for eps in cfg.eps_values
            for token in cfg.variants if token != cli.UPPER_BOUND
            for trav in cfg.traverses}
    assert len(calls) == len(set(calls)) == len(keys)
    cli.run_sweep(cfg)
    assert len(calls) == len(keys)


def _field_tuple(cfg):
    return tuple(getattr(cfg, f.name) for f in dataclasses.fields(cfg))


@pytest.mark.parametrize("variant", list(Variant))
def test_laws_leave_equality_hash_and_repr_alone(variant):
    cfg, twin = memo_cfg(variant, {}), memo_cfg(variant, {})
    before = (hash(_field_tuple(cfg)), repr(cfg))
    run_svt(memo_stream(), cfg, np.random.default_rng(1))
    assert (hash(cfg), repr(cfg)) == before == (hash(twin), repr(twin))
    assert cfg == twin and len({cfg, twin}) == 1
    assert cfg != dataclasses.replace(cfg, k_est=cfg.k_est + 1)
    assert "_laws" in vars(cfg) and "_laws" not in repr(cfg)


@pytest.mark.parametrize("variant", list(Variant))
def test_copied_and_pickled_configs_run_like_fresh_ones(variant):
    cfg = memo_cfg(variant, {})
    want = run_svt(memo_stream(), cfg, np.random.default_rng(3))
    copies = [copy.copy(cfg), copy.deepcopy(cfg),
              pickle.loads(pickle.dumps(cfg))]
    for other in copies:
        assert other == cfg and hash(other) == hash(cfg)
        assert "_laws" not in vars(other)
        assert run_svt(memo_stream(), other, np.random.default_rng(3)) == want
    assert "_laws" not in cfg.__getstate__()


PICKLED_CONFIG = """
import pickle, sys
from svtkit.svt import SvtConfig
from svtkit.allocation import Variant
loaded = pickle.loads(bytes.fromhex(sys.argv[1]))
fresh = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=2, k_max=40,
                  variant=Variant.LAP)
print(hash(loaded) == hash(fresh), len({loaded, fresh}),
      "_laws" in vars(loaded), loaded._laws == fresh._laws)
"""


def test_pickled_config_hashes_like_a_fresh_one_in_another_process():
    """A Variant's hash differs between processes, so a config hashed in
    one process and unpickled in another must hash anew there; it computes
    its laws there too."""
    cfg = cfg_with(c=2, k_max=40, variant=Variant.LAP)
    hash(cfg), cfg._laws
    other_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": other_seed,
           "PYTHONPATH": str(Path(svt.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", PICKLED_CONFIG,
                          pickle.dumps(cfg).hex()], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "1", "False", "True"]


def test_laws_keep_override_signs_in_either_order():
    base = dict(variant=Variant.EXP_OPT_CORR)
    for order in ((-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)):
        first, second = (cfg_with(correction_override=v, **base)
                         for v in order[:2])
        assert first == second and hash(first) == hash(second)
        runs = [run_svt(stream([500.0]), cfg, np.random.default_rng(1))
                for cfg in (first, second, first)]
        signs = [math.copysign(1.0, out.correction_used) for out in runs]
        assert signs == [math.copysign(1.0, v) for v in order]


@pytest.mark.parametrize("variant",
                         [v for v in Variant if v is not Variant.GAU])
def test_delta_dp_ignored_outside_the_gaussian(variant):
    kw = dict(variant=variant, c=3, k_max=40, k_est=10)
    plain, given = cfg_with(**kw), cfg_with(delta_dp=0.5, **kw)
    assert noise_pair(given) == noise_pair(plain)
    assert correction_term(given) == correction_term(plain)
    scores = list(np.linspace(480, 520, 20))
    assert (run_svt(stream(scores), given, np.random.default_rng(3))
            == run_svt(stream(scores), plain, np.random.default_rng(3)))


def test_long_stream_draws_what_it_evaluates(monkeypatch):
    """A lap run over a 2*10^5-item shuffled stream halts after a few
    hundred evaluations; its query draws stay within the first chunk or
    twice the evaluations, not the stream's length."""
    sizes = []
    sample = noise.sample

    def counted(d, rng, size=None):
        if size is not None:
            sizes.append(size)
        return sample(d, rng, size=size)

    monkeypatch.setattr(noise, "sample", counted)
    ds = data.gen_zipf(2 * 10**5)
    for seed in range(3):
        sizes.clear()
        rng = np.random.default_rng(seed)
        out = run_svt(data.shuffle_and_stream(ds, rng),
                      cfg_with(variant=Variant.LAP, c=50, k_max=ds.n_items),
                      rng)
        assert out.halt_reason is HaltReason.POSITIVE_BUDGET
        assert out.n_a < ds.n_items // 100
        assert sum(sizes) <= max(svt._FIRST_CHUNK, 2 * out.n_a)


def test_early_halt_draws_the_opening_chunk(monkeypatch):
    """A lap run over a 10^4-item shuffled stream that halts within the
    opening chunk draws exactly that chunk's query noises."""
    sizes = []
    sample = noise.sample

    def counted(d, rng, size=None):
        if size is not None:
            sizes.append(size)
        return sample(d, rng, size=size)

    monkeypatch.setattr(noise, "sample", counted)
    ds = data.gen_zipf(10**4)
    for seed in range(3):
        sizes.clear()
        rng = np.random.default_rng(seed)
        out = run_svt(data.shuffle_and_stream(ds, rng),
                      cfg_with(variant=Variant.LAP, c=50, k_max=ds.n_items),
                      rng)
        assert out.halt_reason is HaltReason.POSITIVE_BUDGET
        assert out.n_a <= svt._OPENING_CHUNK == 512
        assert sizes == [512]


def test_permuted_stream_reads_are_read_only():
    ds = data.gen_zipf(20)
    s = data.shuffle_and_stream(ds, np.random.default_rng(0))
    for values in (s.ids, s.scores, s.thresholds):
        assert not values.flags.writeable


@pytest.mark.parametrize("variant", list(Variant))
def test_row_built_stream_runs_as_its_identity_permutation(variant):
    ds = data.gen_zipf(300)
    built = QueryStream(ds.ids, ds.scores, ds.threshold)
    view = QueryStream.permuted(ds.ids, ds.scores, ds.threshold,
                                np.arange(ds.n_items))
    assert built == view
    cfg = cfg_with(variant=variant, c=60, k_max=600, append=True,
                   max_traverses=2, k_est=5, delta_dp=1e-3)
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert run_svt(built, cfg, a) == run_svt(view, cfg, b)
    assert a.bit_generator.state == b.bit_generator.state


# --- outcome columns built on first read --------------------------------------

def eager_outcome(ids, evaluated, flagged, halt, r):
    """The oracle: the outcome assembly that took every answer's id and
    filled every traverse number before the run returned."""
    flags = (flagged[0] if len(flagged) == 1
             else svt.sealed(np.concatenate(flagged)))
    traverses = np.empty(flags.size, dtype=np.int64)
    answer_ids = np.empty_like(traverses)
    end = 0
    for traverse, rows in enumerate(evaluated, 1):
        start, end = end, end + rows.size
        ids.take(rows, out=answer_ids[start:end], mode="clip")
        traverses[start:end] = traverse
    return SvtOutcome.trusted(answer_ids=svt.sealed(answer_ids), flags=flags,
                              traverses=svt.sealed(traverses),
                              halt_reason=halt, correction_used=r)


def lazy_and_eager(monkeypatch, queries, cfg, make_rng):
    lazy = run_svt(queries, cfg, make_rng())
    with monkeypatch.context() as patched:
        patched.setattr(svt, "_outcome", eager_outcome)
        eager = run_svt(queries, cfg, make_rng())
    return lazy, eager


def assert_same_columns(lazy, eager):
    """Read ``positives`` first, which must build no deferred column, then
    compare the outcomes column by column, dtypes included; reading the
    columns drops the kept rows."""
    deferred = "_parts" in vars(lazy)
    assert lazy.positives == eager.positives
    assert ("answer_ids" in vars(lazy)) != deferred
    assert ("traverses" in vars(lazy)) != deferred
    for name in ("answer_ids", "flags", "traverses"):
        got, want = getattr(lazy, name), getattr(eager, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert "_parts" not in vars(lazy)
    assert (lazy.n_a, lazy.n_c, lazy.halt_reason, lazy.correction_used) == (
        eager.n_a, eager.n_c, eager.halt_reason, eager.correction_used)
    assert lazy == eager and eager == lazy


def sparse_stream(n=5000, near=10, seed=6) -> QueryStream:
    """``n`` queries far below the threshold 500 and ``near`` around it, so
    that a run with c above ``near`` walks every traverse."""
    rng = np.random.default_rng(seed)
    scores = np.full(n, -2000.0)
    scores[rng.permutation(n)[:near]] = 500.0 + 20.0 * rng.standard_normal(near)
    ids = rng.permutation(np.arange(7, 7 + 2 * n))[:n].tolist()
    return QueryStream(ids, scores, 500.0)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("traverses", [1, 2, 5])
@pytest.mark.parametrize("variant", list(Variant))
def test_appended_outcome_matches_the_eager_oracle(monkeypatch, variant,
                                                   traverses, bit_generator):
    """An outcome of more than 4,096 answers or several traverses equals,
    column for column, the one whose columns were filled before the run
    returned; one of several traverses defers its columns, and
    ``positives`` reads the flagged rows without building them."""
    queries = sparse_stream()
    cfg = cfg_with(variant=variant, c=20, k_max=len(queries) * traverses,
                   append=True, max_traverses=traverses,
                   delta_dp=1e-3 if variant is Variant.GAU else None)
    lazy, eager = lazy_and_eager(monkeypatch, queries, cfg,
                                 lambda: np.random.Generator(bit_generator(9)))
    assert ("_parts" in vars(lazy)) == (traverses > 1)
    assert_same_columns(lazy, eager)
    assert lazy.traverses.max() == traverses
    assert lazy.n_c > 0


def test_lazily_built_columns_are_kept_and_survive_pickling():
    """Columns built on first read are kept (their sealing is checked by
    ``test_outcome_columns_cannot_be_made_writable``, whose runs of more
    than 4,096 answers or several traverses build them); a copy or pickle
    round trip, made before or after they are built, carries the same
    columns and not the run's rows."""
    cfg = cfg_with(variant=Variant.EXP_OPT_CORR, c=20, k_max=15000,
                   append=True, max_traverses=3, k_est=250)
    out = run_svt(sparse_stream(), cfg, np.random.default_rng(3))
    before = pickle.loads(pickle.dumps(out))
    assert "_parts" not in vars(before) and "_parts" not in vars(copy.copy(out))
    assert out.answer_ids is out.answer_ids and out.traverses is out.traverses
    after = pickle.loads(pickle.dumps(out))
    assert before == out == after == copy.deepcopy(out)
    assert before.positives == out.positives == after.positives
    assert before.n_queries == after.n_queries == out.n_queries == 5000
    assert out.traverses.tolist() == before.traverses.tolist()


def test_appended_run_over_a_scores_file_gathers_only_its_rows(
        tmp_path, monkeypatch):
    """A scores file's id column is a strided field: an appended run over a
    few of its rows, and its built columns, copy no more than those rows
    (tracemalloc sees numpy's buffers), and equal the eager oracle."""
    n = 1 << 16
    data.write_scores(data.gen_zipf(n), tmp_path / "wide.scores")
    ds = data.read_scores(tmp_path / "wide.scores")
    assert not ds.ids.flags.c_contiguous
    order = svt.sealed(np.random.default_rng(3).permutation(n)[:300])
    queries = QueryStream.permuted(ds.ids, ds.scores, ds.threshold, order)
    cfg = cfg_with(variant=Variant.LAP, c=200, k_max=1200, append=True,
                   max_traverses=4)
    cfg._laws
    tracemalloc.start()
    try:
        out = run_svt(queries, cfg, np.random.default_rng(5))
        columns = out.positives, out.answer_ids, out.traverses
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns[2].max() > 1
    assert peak < ds.ids.nbytes // 4
    lazy, eager = lazy_and_eager(monkeypatch, queries, cfg,
                                 lambda: np.random.default_rng(5))
    assert_same_columns(lazy, eager)


def test_long_single_traverse_outcome_does_not_keep_the_stream_order(
        monkeypatch):
    """An outcome of one traverse cut after 6,000 of 10^5 queries equals the
    eager oracle, and gets its columns before the run returns, so it does
    not keep the stream's order."""
    ds = data.gen_zipf(10**5)
    queries = data.shuffle_and_stream(ds, np.random.default_rng(1))
    cfg = cfg_with(variant=Variant.LAP, c=5000, k_max=6000)
    lazy, eager = lazy_and_eager(monkeypatch, queries, cfg,
                                 lambda: np.random.default_rng(8))
    assert lazy.halt_reason is HaltReason.QUERY_BUDGET
    assert "_parts" not in vars(lazy)
    order = weakref.ref(queries.order.base)
    del queries
    assert order() is None
    assert_same_columns(lazy, eager)


@pytest.mark.parametrize("writable", ["ids", "order"])
def test_appended_run_over_a_callers_writable_rows_defers_on_a_copy(
        monkeypatch, writable):
    """A stream over a caller's writable ids or order holds a copy of them,
    so its appended outcome defers its columns like any other: a later
    write by the caller changes no column, ``positives`` read while still
    deferred included, and no later run."""
    n = 5000
    ids, order = np.arange(7, 7 + n), np.random.default_rng(2).permutation(n)
    scores = np.full(n, -2000.0)
    scores[order[:10]] = 500.0
    if writable == "ids":
        queries = QueryStream(ids, scores, 500.0)
    else:
        queries = QueryStream.permuted(svt.sealed(ids), svt.sealed(scores),
                                       500.0, order)
    held = {"ids": queries.columns[0], "order": queries.order}[writable]
    assert not np.shares_memory(held, {"ids": ids, "order": order}[writable])
    cfg = cfg_with(variant=Variant.LAP, c=20, k_max=3 * n, append=True,
                   max_traverses=3)
    lazy, eager = lazy_and_eager(monkeypatch, queries, cfg,
                                 lambda: np.random.default_rng(4))
    assert "_parts" in vars(lazy) and lazy.n_a > n
    {"ids": ids, "order": order}[writable][:] = np.arange(n)[::-1]
    positives = lazy.positives
    assert "_parts" in vars(lazy) and positives == eager.positives
    assert lazy == eager and lazy.traverses.max() == 3
    assert np.array_equal(lazy.answer_ids[lazy.flags], positives)
    assert run_svt(queries, cfg, np.random.default_rng(4)) == eager
