"""The vectorized engine against a per-entry reference loop.

``reference_run`` is the queue-based engine that ``run_svt`` replaced: one
pending deque of (entry, traverse) pairs, one query-noise draw per
processing batch, threshold redraws after the batch under resampling. It
is kept here, in the tests only, as the oracle: for any stream, config,
seed or noise override, ``run_svt`` must return the same answers (ids,
flags, traverses), counters, halt reason and correction bit for bit, and
call a noise override in the same order.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import data, svt
from svtkit import noise as noise_mod
from svtkit.allocation import Variant
from svtkit.svt import (HaltReason, QueryStream, SvtConfig, correction_term,
                        noise_pair, run_svt)


def reference_run(queries, cfg, rng, noise_override=None):
    thr_dist, qry_dist = noise_pair(cfg)
    r = correction_term(cfg)
    redraws = 0

    def draw_threshold():
        nonlocal redraws
        if noise_override is not None:
            value = float(noise_override("threshold", -1, redraws))
        else:
            value = noise_mod.sample(thr_dist, rng)
        redraws += 1
        return value

    def draw_query(batch):
        if noise_override is not None:
            return np.array([float(noise_override("query", e.query_id, t))
                             for e, t in batch])
        return np.atleast_1d(noise_mod.sample(qry_dist, rng, size=len(batch)))

    pending = deque((entry, 1) for entry in queries)
    answers = []
    n_a = n_c = 0
    rho = draw_threshold()
    halt = None
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
        base = np.fromiter((e.score - e.threshold for e, _ in batch),
                           dtype=float, count=take) + v - r
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
            answers.append((entry.query_id, bool(flags[idx]), traverse))
            if flags[idx]:
                n_c += 1
            elif cfg.append and traverse < cfg.max_traverses:
                pending.append((entry, traverse + 1))
        n_a += used
    return answers, n_c, n_a, halt, r


def assert_same_run(queries, cfg, seed, override=None):
    calls = {"new": [], "ref": []}

    def recorder(side):
        if override is None:
            return None

        def call(role, qid, trav):
            calls[side].append((role, qid, trav))
            return override(role, qid, trav)
        return call

    new = run_svt(queries, cfg, np.random.default_rng(seed), recorder("new"))
    answers, n_c, n_a, halt, r = reference_run(
        queries, cfg, np.random.default_rng(seed), recorder("ref"))
    assert list(zip(new.answer_ids.tolist(), new.flags.tolist(),
                    new.traverses.tolist())) == answers
    assert new.answer_ids.tolist() == [a[0] for a in answers]
    assert new.flags.tolist() == [a[1] for a in answers]
    assert new.traverses.tolist() == [a[2] for a in answers]
    assert (new.n_c, new.n_a, new.halt_reason) == (n_c, n_a, halt)
    assert new.correction_used == r
    assert calls["new"] == calls["ref"]
    return new


def config(**kw) -> SvtConfig:
    base = dict(delta=1.0, eps1=0.5, eps2=0.5, c=3, k_max=1000,
                variant=Variant.EXP_MEAN_CORR)
    base.update(kw)
    if base["variant"] is Variant.GAU:
        base.setdefault("delta_dp", 1e-3)
    return SvtConfig(**base)


def near_threshold(n: int, seed: int, spread: float = 8.0) -> QueryStream:
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(10, 10 + 3 * n))[:n]
    return QueryStream(ids, 500.0 + spread * rng.standard_normal(n), 500.0)


def scripted(role, qid, trav):
    """Deterministic pseudo-noise keyed on the call's arguments."""
    x = np.sin(12.9898 * (qid + 2) + 78.233 * trav + (role == "query"))
    return float(((43758.5453 * x) % 1.0 - 0.5) * 20.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kw", [
    dict(),
    dict(resample=True),
    dict(append=True, max_traverses=1),
    dict(append=True, max_traverses=2),
    dict(append=True, max_traverses=5),
    dict(append=True, max_traverses=5, resample=True),
    dict(monotonic=True, append=True, max_traverses=2),
    dict(variant=Variant.EXP_OPT_CORR, k_est=10, append=True, max_traverses=5),
    dict(variant=Variant.LAP, append=True, max_traverses=5, c=40),
    dict(variant=Variant.GAU, append=True, max_traverses=2, c=40),
    dict(variant=Variant.GUM, resample=True, c=10),
])
def test_matches_reference(kw, seed):
    assert_same_run(near_threshold(40, seed), config(**kw), seed)


@pytest.mark.parametrize("k_max", [1, 17, 40, 41, 63, 80, 120, 200])
def test_k_max_cut_matches_reference(k_max):
    """k_max inside, at the end of, and past a traverse."""
    cfg = config(variant=Variant.EXP_NO_CORR, c=40, k_max=k_max, append=True,
                 max_traverses=5)
    out = assert_same_run(near_threshold(40, 3, spread=2.0), cfg, 7)
    assert out.n_a <= k_max


def test_k_max_cut_inside_a_traverse_is_a_query_budget_halt():
    cfg = config(variant=Variant.EXP_NO_CORR, c=40, k_max=50, append=True,
                 max_traverses=3)
    out = assert_same_run(near_threshold(40, 3), cfg, 0, lambda *a: 0.0)
    assert out.halt_reason is HaltReason.QUERY_BUDGET
    assert out.n_a == 50


def test_positive_budget_reached_mid_batch_matches_reference():
    cfg = config(c=2, append=True, max_traverses=5)
    out = assert_same_run(near_threshold(40, 4, spread=30.0), cfg, 0,
                          scripted)
    assert out.halt_reason is HaltReason.POSITIVE_BUDGET
    assert out.n_a < 40


@pytest.mark.parametrize("kw", [
    dict(),
    dict(resample=True, c=10),
    dict(append=True, max_traverses=5, c=40),
    dict(append=True, max_traverses=4, k_max=70, c=40),
])
def test_noise_override_matches_reference(kw):
    assert_same_run(near_threshold(30, 5), config(**kw), 0, scripted)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
       c=st.integers(1, 30), k_max=st.integers(1, 120),
       traverses=st.integers(1, 6), append=st.booleans(),
       resample=st.booleans(), monotonic=st.booleans(),
       variant=st.sampled_from([Variant.EXP_NO_CORR, Variant.EXP_MEAN_CORR,
                                Variant.LAP, Variant.GUM]),
       spread=st.sampled_from([0.0, 2.0, 20.0]), override=st.booleans())
def test_matches_reference_property(n, seed, c, k_max, traverses, append,
                                    resample, monotonic, variant, spread,
                                    override):
    cfg = config(c=c, k_max=k_max, max_traverses=traverses, append=append,
                 resample=resample, monotonic=monotonic, variant=variant)
    assert_same_run(near_threshold(n, seed % 1000, spread), cfg, seed,
                    scripted if override else None)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("resample", [False, True])
@pytest.mark.parametrize("traverses", [dict(), dict(append=True,
                                                     max_traverses=3)])
@pytest.mark.parametrize("k_max", [1000, 45])
def test_generator_end_state_matches_reference(variant, c, resample,
                                               traverses, k_max):
    """``run_svt`` consumes exactly the oracle's draws: the generator ends
    in the same state, so a caller's next draw is the same. Scores sit
    below the threshold, so the runs halt for each of the three reasons,
    some after a second or third traverse."""
    cfg = config(variant=variant, c=c, resample=resample, k_max=k_max,
                 k_est=10, **traverses)
    for seed in (0, 1, 2):
        near = near_threshold(40, seed, spread=2.0)
        queries = QueryStream(near.ids, near.scores, 530.0)
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        run_svt(queries, cfg, new)
        reference_run(queries, cfg, ref)
        assert new.bit_generator.state == ref.bit_generator.state


# --- streams longer than the engine's first chunk ---------------------------
# Without resample or a noise override, a long stream on a PCG64 generator
# is evaluated in doubling chunks and the query draws left after a halt are
# skipped with ``advance``; the outcome and the generator's end state must
# still be the oracle's, which draws each traverse whole.

FIRST = svt._FIRST_CHUNK


def long_stream(n: int, hits=()) -> QueryStream:
    """n queries 1000 below their threshold, except those at positions
    ``hits``, 1000 above: far beyond every noise these configs draw."""
    scores = np.full(n, -1000.0)
    scores[list(hits)] = 1000.0
    return QueryStream(range(1, n + 1), scores, 0.0)


def assert_same_end_state(queries, cfg, bit_generator=np.random.PCG64,
                          seed=11):
    """``run_svt`` against the oracle, answers and generator end state. The
    generators first hold a spare 32-bit output, which ``advance`` would
    clear."""
    new, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for rng in (new, ref):
        rng.integers(0, 10, dtype=np.int32)
    out = run_svt(queries, cfg, new)
    answers, n_c, n_a, halt, r = reference_run(queries, cfg, ref)
    assert list(zip(out.answer_ids.tolist(), out.flags.tolist(),
                    out.traverses.tolist())) == answers
    assert (out.n_c, out.n_a, out.halt_reason) == (n_c, n_a, halt)
    np.testing.assert_equal(new.bit_generator.state, ref.bit_generator.state)
    return out


LONG = dict(variant=Variant.LAP, c=3, k_max=10**6)


@pytest.mark.parametrize("n, hits, kw, halt, n_a", [
    # a halt in the first chunk
    (10**4, (5, 70, 900), {}, HaltReason.POSITIVE_BUDGET, 901),
    # a halt in the fourth chunk, [2 FIRST, 4 FIRST)
    (2 * 10**4, (5, 9000, 15000), {}, HaltReason.POSITIVE_BUDGET, 15001),
    # no halt
    (2 * 10**4, (5, 9000), {}, HaltReason.EXHAUSTED, 2 * 10**4),
    # a k_max cut inside the third chunk
    (2 * 10**4, (5, 9000), dict(k_max=7000), HaltReason.QUERY_BUDGET, 7000),
    # three traverses of the negatives, each in chunks
    (10**4, (5, 9000), dict(c=5, append=True, max_traverses=3),
     HaltReason.EXHAUSTED, 3 * 10**4 - 4),
    # a k_max cut inside the third traverse
    (10**4, (5, 9000), dict(c=5, append=True, max_traverses=3, k_max=25000),
     HaltReason.QUERY_BUDGET, 25000),
    # every query positive: traverse 1 drains the queue, traverses 2 and 3
    # are empty and draw nothing (eps2 keeps the query noise far below 1000)
    (10**4, range(10**4), dict(c=10**4 + 1, eps2=1e5, append=True,
                               max_traverses=3),
     HaltReason.EXHAUSTED, 10**4),
    # k_max == n: traverse 2 starts empty with a query-budget cut
    (10**4, (5, 9000), dict(c=5, append=True, max_traverses=3, k_max=10**4),
     HaltReason.QUERY_BUDGET, 10**4),
])
@pytest.mark.parametrize("variant", [Variant.LAP, Variant.EXP_MEAN_CORR])
def test_long_stream_matches_reference(n, hits, kw, halt, n_a, variant):
    assert n > FIRST
    out = assert_same_end_state(long_stream(n, hits),
                                config(**{**LONG, "variant": variant, **kw}))
    assert (out.halt_reason, out.n_a) == (halt, n_a)


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.PCG64DXSM,
    # No exact skip: each traverse is one chunk.
    np.random.MT19937, np.random.SFC64, np.random.Philox])
@pytest.mark.parametrize("kw, n_a", [
    ({}, 15001),
    # three whole traverses of the 19,997 negatives
    (dict(c=5, append=True, max_traverses=3), 2 * 10**4 + 2 * 19997),
], ids=["one-traverse", "three-traverses"])
def test_long_stream_on_each_bit_generator_matches_reference(bit_generator,
                                                             kw, n_a):
    out = assert_same_end_state(long_stream(2 * 10**4, (5, 9000, 15000)),
                                config(**{**LONG, **kw}), bit_generator)
    assert out.n_a == n_a


# --- the straight path's boundary ------------------------------------------
# A run of one traverse without resample or a noise override, on at most
# min(first chunk, k_max) queries, skips the engine's loops. On each side of
# that boundary (n next to FIRST, k_max at n - 1 and n, a halt at the c-th
# positive or none) the engine must still give the oracle's answers,
# counters and generator end state, on each bit generator (the first chunk
# is k_max where there is no exact skip) and for every variant.

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.SFC64, np.random.Philox]
BOUNDARY = [(n, hits, k_max) for n in (FIRST - 1, FIRST, FIRST + 1)
            for hits in ((5, n - 3), (5,)) for k_max in (n - 1, n)]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_straight_path_boundary_matches_reference(variant, bit_generator):
    """Each (generator, variant) pair runs two of the twelve boundary
    points, rotated so that every generator meets all twelve."""
    shift = BIT_GENERATORS.index(bit_generator) + list(Variant).index(variant)
    for n, hits, k_max in BOUNDARY[shift % 6::6]:
        out = assert_same_end_state(
            long_stream(n, hits), config(variant=variant, c=2, k_max=k_max),
            bit_generator)
        if len(hits) == 2:
            expected = (HaltReason.POSITIVE_BUDGET, n - 2)
        elif k_max < n:
            expected = (HaltReason.QUERY_BUDGET, k_max)
        else:
            expected = (HaltReason.EXHAUSTED, n)
        assert (out.halt_reason, out.n_a) == expected


def test_shuffled_dataset_stream_matches_reference():
    """The lazy stream of :func:`data.shuffle_and_stream`, on the generator
    that shuffled it, as a sweep cell runs it."""
    ds = data.gen_zipf(2 * 10**4)
    for trav in (1, 3):
        cfg = config(variant=Variant.LAP, c=50, k_max=ds.n_items * trav,
                     append=True, max_traverses=trav)
        new, ref = np.random.default_rng(5), np.random.default_rng(5)
        stream = data.shuffle_and_stream(ds, new)
        assert stream == data.shuffle_and_stream(ds, ref)
        out = run_svt(stream, cfg, new)
        answers, *counters = reference_run(stream, cfg, ref)
        assert list(zip(out.answer_ids.tolist(), out.flags.tolist(),
                        out.traverses.tolist())) == answers
        assert [out.n_c, out.n_a, out.halt_reason] == counters[:3]
        assert new.bit_generator.state == ref.bit_generator.state
