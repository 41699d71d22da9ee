"""The array data model: validation at construction, read-only columns,
the scores-file reader's two parse paths, and the views perfbench reads."""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest

from svtkit import cli, data, metrics, noise, svt
from svtkit.allocation import Variant
from svtkit.metrics import GroundTruth
from svtkit.svt import HaltReason, QueryStream, SvtConfig, SvtOutcome, run_svt

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: QueryStream([1, 2], [1.0, NAN], 0.0),
    lambda: QueryStream([1], [1.0], INF),
    lambda: QueryStream([1], [-INF], [0.0]),
    lambda: data.ScoredDataset("x", [1], [NAN], threshold=1.0),
    lambda: data.ScoredDataset("x", [1, 2], [2.0, INF], threshold=1.0),
    lambda: GroundTruth(ids=(1, 2), scores=(NAN, 1.0), threshold=0.0, c=1),
    lambda: GroundTruth.from_items([(1, 2.0), (2, NAN)], 0.0, c=1),
], ids=["stream-nan-score", "stream-inf-threshold", "stream-neg-inf-score",
        "dataset-nan-score", "dataset-inf-score", "truth-nan-score",
        "truth-from-items-nan-score"])
def test_non_finite_data_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_truth_from_items_view_matches_pairs():
    ds = data.gen_binary(300, 40)
    assert (GroundTruth.from_items(ds.items, ds.threshold, 10)
            == GroundTruth.from_items(list(ds.items), ds.threshold, 10))


def test_read_scores_skips_blank_lines(tmp_path):
    path = tmp_path / "spaced.scores"
    path.write_text("# name=s threshold=1.0\n1,2.5\n   \n3,0.5\n\n")
    ds = data.read_scores(path)
    assert dict(zip(ds.ids.tolist(), ds.scores.tolist())) == {1: 2.5, 3: 0.5}


@pytest.mark.parametrize("row", ["4,x", "4", "4,1,2", "4.5,1.0"])
def test_read_scores_names_malformed_line(tmp_path, row):
    path = tmp_path / "bad.scores"
    path.write_text(f"# name=s threshold=1.0\n1,2.5\n2,3.5\n{row}\n")
    with pytest.raises(ValueError, match="line 4"):
        data.read_scores(path)


def _scores_file(tmp_path, body):
    path = tmp_path / "s.scores"
    path.write_text("# name=s threshold=1.0\n" + body)
    return data.read_scores(path)


def _transactions(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("1 2\n2 3\n")
    return data.ingest_transactions(path, 1.0)


def _stream_columns(stream):
    return (*stream.columns, stream.order)


def _fields(record, *names):
    return tuple(getattr(record, name) for name in names)


# Each record's columns, where the library allocated the data itself.
READ_ONLY = {
    "QueryStream from lists": lambda tmp: _stream_columns(
        QueryStream([1, 2], [5.0, 3.0], 4.0)),
    "QueryStream, threshold column": lambda tmp: _stream_columns(
        QueryStream([1, 2], [5.0, 3.0], [4.0, 4.0])),
    "shuffle_and_stream": lambda tmp: _stream_columns(
        data.shuffle_and_stream(data.gen_zipf(5), np.random.default_rng(0))),
    "near_threshold_stream": lambda tmp: _stream_columns(
        cli.near_threshold_stream(4, 10.0, 1.0)),
    "gen_zipf": lambda tmp: _fields(data.gen_zipf(5), "ids", "scores"),
    "gen_binary": lambda tmp: _fields(data.gen_binary(5, 2), "ids", "scores"),
    "ScoredDataset from lists": lambda tmp: _fields(
        data.ScoredDataset("d", [1, 2], [2.0, 0.5], 1.0), "ids", "scores"),
    "read_scores": lambda tmp: _fields(
        _scores_file(tmp, "1,2.5\n3,0.5\n"), "ids", "scores"),
    "read_scores, line parser": lambda tmp: _fields(
        _scores_file(tmp, "1,2.5\n  \n3,0.5\n"), "ids", "scores"),
    "ingest_transactions": lambda tmp: _fields(
        _transactions(tmp), "ids", "scores"),
    "GroundTruth.from_items, pairs": lambda tmp: _fields(
        GroundTruth.from_items([(1, 2.0), (2, 3.0)], 0.0, 1), "ids",
        "scores"),
    "GroundTruth.from_items, items view": lambda tmp: _fields(
        GroundTruth.from_items(data.gen_zipf(5).items, 0.0, 1), "ids",
        "scores"),
    "GroundTruth from lists": lambda tmp: _fields(
        GroundTruth([2, 1], [3.0, 2.0], 0.0, 1), "ids", "scores"),
    "QueryStream over a caller's arrays": lambda tmp: _stream_columns(
        QueryStream(np.arange(3), np.ones(3), np.zeros(3))),
    "permuted over a caller's order": lambda tmp: _stream_columns(
        QueryStream.permuted(*_fields(data.gen_zipf(3), "ids", "scores"),
                             1.0, np.arange(3)[::-1])),
    "permuted over a caller's columns": lambda tmp: _stream_columns(
        QueryStream.permuted(np.arange(3), np.ones(3), 1.0,
                             svt.sealed(np.arange(3)))),
    "GroundTruth.top": lambda tmp: _fields(
        GroundTruth.top(data.gen_binary(5, 2), 3), "ids", "scores"),
    "SvtOutcome from lists": lambda tmp: _fields(
        SvtOutcome([1, 2], [True, False], [1, 1], HaltReason.EXHAUSTED, 0.0),
        "answer_ids", "flags", "traverses"),
}


@pytest.mark.parametrize("columns", READ_ONLY.values(), ids=READ_ONLY.keys())
def test_columns_cannot_be_made_writable(tmp_path, columns):
    """A column view's owner is read-only too, so nothing written through
    it can get past the checks made at construction."""
    for view in columns(tmp_path):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view.flags.writeable = True


def test_columns_of_a_callers_writable_array_are_copies():
    """A record copies a caller's writable arrays and leaves them writable;
    a write to them afterwards reaches no column."""
    ids, scores = np.arange(1, 4), np.array([3.0, 2.0, 1.0])
    ds = data.ScoredDataset("d", ids, scores, 1.0)
    stream = QueryStream(ids, scores, 1.0)
    for column in (ds.ids, ds.scores, *stream.columns[:2]):
        assert not np.shares_memory(column, ids)
        assert not np.shares_memory(column, scores)
    assert ids.flags.writeable and scores.flags.writeable
    ids[0], scores[0] = 9, 9.0
    assert ds.ids.tolist() == stream.ids.tolist() == [1, 2, 3]
    assert ds.scores.tolist() == stream.scores.tolist() == [3.0, 2.0, 1.0]


# --- a record owns read-only columns ------------------------------------------

@pytest.fixture
def copies(monkeypatch):
    """The arrays that ``svt._owned`` copied while the test ran."""
    made, owned = [], svt._owned

    def spy(array):
        held = owned(array)
        if not np.shares_memory(held, array):
            made.append(array)
        return held

    monkeypatch.setattr(svt, "_owned", spy)
    return made


def test_library_built_records_view_their_source(copies, tmp_path):
    """Every record the library builds views arrays it sealed, and so is
    built without a copy; so is one over an array its caller made
    read-only."""
    ds = data.gen_zipf(1000)
    stream = data.shuffle_and_stream(ds, np.random.default_rng(0))
    assert np.shares_memory(stream.columns[0], ds.ids)
    assert np.shares_memory(stream.columns[1], ds.scores)
    data.gen_binary(1000, 10)
    cli.near_threshold_stream(50, 1000.0, 10.0)
    data.write_scores(ds, tmp_path / "z.scores")
    read = data.read_scores(tmp_path / "z.scores")
    assert read.ids.base is read.scores.base  # the parsed rows
    GroundTruth.ranked(read.ids, read.scores, read.threshold, 10)
    GroundTruth.top(read, 10)
    truth = GroundTruth(ds.ids, ds.scores, ds.threshold, 10)  # zipf is ranked
    assert np.shares_memory(truth.ids, ds.ids)
    assert np.shares_memory(truth.scores, ds.scores)
    mine = np.arange(1, 4)
    mine.flags.writeable = False
    assert np.shares_memory(QueryStream(mine, [1.0, 2.0, 3.0], 0.0).columns[0],
                            mine)
    assert not copies


def test_a_writable_view_of_a_read_only_owner_is_copied():
    """A view made before its owner was marked read-only can still be
    written through, so a record copies it."""
    owner = np.arange(1, 4)
    view = owner[:]
    owner.flags.writeable = False
    stream = QueryStream(view, [1.0, 2.0, 3.0], 0.0)
    assert not np.shares_memory(stream.columns[0], owner)


@pytest.mark.parametrize("column, permuted", [
    ("ids", False), ("scores", False), ("thresholds", False), ("order", True),
    ("ids", True), ("scores", True)],
    ids=["ids", "scores", "thresholds", "order", "permuted-ids",
         "permuted-scores"])
def test_a_callers_writable_column_is_copied_once(copies, column, permuted):
    """A caller's writable ids, scores, thresholds or ``permuted`` order,
    ids or scores is copied once, at construction. A later write to it is
    seen by no stream read, no kept read, no later run and no outcome
    already returned, an appended outcome's deferred ``positives``
    included."""
    n = 3000
    rng = np.random.default_rng(2)
    caller = dict(ids=np.arange(7, 7 + n), scores=np.full(n, -2000.0),
                  thresholds=np.full(n, 500.0), order=rng.permutation(n))
    caller["scores"][caller["order"][:10]] = (
        500.0 + 20.0 * rng.standard_normal(10))
    given = {name: svt.sealed(a.copy()) for name, a in caller.items()}

    def build(columns):
        if permuted:
            return QueryStream.permuted(columns["ids"], columns["scores"],
                                        500.0, columns["order"])
        return QueryStream(columns["ids"], columns["scores"],
                           columns["thresholds"])

    queries, reference = build({**given, column: caller[column]}), build(given)
    assert len(copies) == 1 and copies[0] is caller[column]
    one = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=3, k_max=n,
                    variant=Variant.LAP)
    appended = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=20, k_max=3 * n,
                         variant=Variant.LAP, append=True, max_traverses=3)
    reads = queries.ids, queries.scores, queries.thresholds
    kept = queries._in_order
    first = run_svt(queries, one, np.random.default_rng(0))
    deferred = run_svt(queries, appended, np.random.default_rng(1))
    assert "_parts" in vars(deferred)
    caller[column][:] = {"ids": np.arange(n)[::-1], "scores": 1e6,
                         "thresholds": -1e6, "order": np.arange(n)}[column]
    assert deferred.positives == run_svt(
        reference, appended, np.random.default_rng(1)).positives
    assert "_parts" in vars(deferred)
    for got, want in zip((queries.ids, queries.scores, queries.thresholds),
                         reads):
        assert np.array_equal(got, want)
    assert queries._in_order is kept
    assert all(map(np.array_equal, kept, reference._in_order))
    for stream in (queries, reference):
        assert run_svt(stream, one, np.random.default_rng(0)) == first
    assert deferred == run_svt(queries, appended, np.random.default_rng(1))
    assert len(copies) == 1


def test_outcome_counters_are_read_off_its_columns():
    out = SvtOutcome([4, 7, 4], [False, True, True], [1, 1, 2],
                     HaltReason.POSITIVE_BUDGET, 0.5)
    assert (out.n_a, out.n_c, out.positives) == (3, 2, (7, 4))
    empty = SvtOutcome([], [], [], HaltReason.EXHAUSTED, 0.0)
    assert (empty.n_a, empty.n_c, empty.positives) == (0, 0, ())


def test_the_calls_perfbench_makes():
    """perfbench/workloads.py, the benchmark's driver, lies outside this
    suite's testpaths and reads these views: a dataset's ``items`` and
    (id, score) pairs taken from a stream's ``QueryEntry`` iteration, both
    into ``GroundTruth.from_items``; ``SvtConfig(append=...,
    max_traverses=...)``; and an outcome's ``positives``, ``n_c``, ``n_a``,
    ``halt_reason`` and ``correction_used``. This test makes those calls."""
    ds = data.gen_zipf(400)
    truth = metrics.GroundTruth.from_items(ds.items, ds.threshold, 5)
    assert truth.ids[:5].tolist() == [1, 2, 3, 4, 5]
    rng = np.random.default_rng(3)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=5, k_max=2 * ds.n_items,
                    variant=Variant.LAP, resample=False, append=True,
                    max_traverses=2)
    outcome = run_svt(data.shuffle_and_stream(ds, rng), cfg, rng)
    assert outcome.positives == tuple(
        outcome.answer_ids[outcome.flags].tolist())
    assert 0.0 <= metrics.ncr(outcome.positives, truth) <= 1.0
    assert 0.0 <= metrics.f1(outcome.positives, truth) <= 1.0
    assert (outcome.n_c, outcome.n_a) == (
        np.count_nonzero(outcome.flags), outcome.answer_ids.size)
    assert outcome.halt_reason.value in {h.value for h in HaltReason}
    assert outcome.correction_used == 0.0

    stream = cli.near_threshold_stream(10, 100.0, 2.0)
    pairs = [(e.query_id, e.score) for e in stream]
    assert pairs == list(zip(stream.ids.tolist(), stream.scores.tolist()))
    point = metrics.GroundTruth.from_items(pairs, 100.0, c=1)
    assert point.ids.tolist() == [11] + list(range(1, 11))
    one = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=11,
                    variant=Variant.EXP_OPT_CORR, alpha=2.0, k_est=10)
    assert run_svt(stream, one, np.random.default_rng(0)).n_a <= 11


# --- records through pickle and copy -----------------------------------------

_ROUND_TRIPS = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
                "pickle-5": lambda r: pickle.loads(pickle.dumps(r, protocol=5)),
                "copy": copy.copy, "deepcopy": copy.deepcopy}


def _used_records():
    """One record of each type, each with its reads kept from first use:
    a stream's in-order columns, a dataset's stream columns, a truth's
    scoring table and an outcome's built or deferred columns."""
    ds = data.gen_zipf(300)
    stream = data.shuffle_and_stream(ds, np.random.default_rng(0))
    truth = GroundTruth.top(ds, 5)
    plain = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=5, k_max=300,
                      variant=Variant.LAP)
    appended = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=250, k_max=900,
                         variant=Variant.LAP, append=True, max_traverses=3)
    one_block = run_svt(stream, plain, np.random.default_rng(1))
    deferred = run_svt(stream, appended, np.random.default_rng(2))
    assert one_block._prefix_of is not None and "_parts" in vars(deferred)
    metrics.ncr(one_block.positives, truth)
    built = SvtOutcome([4, 7], [False, True], [1, 1], HaltReason.EXHAUSTED,
                       0.0)
    trials = svt.run_trials(stream, plain, np.random.default_rng(3), 4)
    assert {"_in_order", "_columns", "_credit"} <= (
        vars(stream).keys() | vars(ds).keys() | vars(truth).keys())
    return {"stream": stream, "dataset": ds, "truth": truth,
            "one-block outcome": one_block, "deferred outcome": deferred,
            "outcome from columns": built, "trials": trials}


def _arrays(value):
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return [value] if isinstance(value, np.ndarray) else []


@pytest.mark.parametrize("trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
def test_records_stay_read_only_through_pickle_and_copy(trip):
    """A pickled or copied record carries its fields only (an outcome also
    its ``n_queries``), not the reads it kept, its arrays are read-only and
    cannot be made writable, it equals the original, and its later reads
    are read-only too."""
    for name, record in _used_records().items():
        moved = trip(record)
        assert moved == record, name
        assert vars(moved).keys() <= (
            {f.name for f in fields(record)} | {"n_queries"}), name
        for array in [a for v in vars(moved).values() for a in _arrays(v)]:
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.flags.writeable = True
    stream = trip(_used_records()["stream"])
    assert not any(a.flags.writeable for a in stream._in_order)
    dataset = trip(_used_records()["dataset"])
    shuffled = data.shuffle_and_stream(dataset, np.random.default_rng(0))
    assert not any(a.flags.writeable for a in shuffled.columns)


@pytest.mark.parametrize("trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
def test_laws_pickle_their_fields_and_draw_as_the_original(trip):
    """A law's draw operands are kept from its first draw but not pickled
    or copied: the copy builds read-only ones and draws as the original."""
    for law in (noise.exponential(2.5), noise.laplace(0.7, 1.0),
                noise.gaussian(3.0), noise.gumbel(1.5, -2.0)):
        noise.sample(law, np.random.default_rng(0), size=3)
        moved = trip(law)
        assert moved == law and "_operands" not in vars(moved)
        one, two = np.random.default_rng(4), np.random.default_rng(4)
        assert (noise.sample(moved, one, size=5).tobytes()
                == noise.sample(law, two, size=5).tobytes())
        assert noise.sample(moved, one) == noise.sample(law, two)
        assert not any(a.flags.writeable for a in moved._operands)


@pytest.mark.parametrize("trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
def test_a_shared_threshold_stays_one_value_through_pickle_and_copy(trip):
    """A stream's stride-0 threshold column is pickled as its one value and
    read as a sealed stride-0 column again, so an appended run on the copy
    reads thresholds by slice as the original does, to the same outcome and
    generator state. A row-built stream's per-query column stays an array."""
    stream = data.shuffle_and_stream(data.gen_zipf(10**4),
                                     np.random.default_rng(0))
    ids, scores, _ = stream.columns
    assert len(pickle.dumps(stream)) <= (ids.nbytes + scores.nbytes
                                         + stream.order.nbytes + 4096)
    moved = trip(stream)
    thresholds = moved.columns[2]
    assert thresholds.strides == (0,) and thresholds.size == ids.size
    assert not thresholds.flags.writeable
    with pytest.raises(ValueError):
        thresholds.flags.writeable = True
    assert moved == stream
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=9000, k_max=30_000,
                    variant=Variant.LAP, append=True, max_traverses=3)
    one, two = np.random.default_rng(5), np.random.default_rng(5)
    run = run_svt(moved, cfg, one)
    assert run == run_svt(stream, cfg, two) and run.traverses.max() == 3
    assert one.bit_generator.state == two.bit_generator.state
    rows = QueryStream([1, 2, 3], [1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    assert trip(rows).columns[2].strides == (8,) and trip(rows) == rows


@pytest.mark.parametrize("d", [
    noise.laplace(1.7), noise.laplace(0.4, -0.0), noise.exponential(2.5),
    noise.exponential(2.5, -0.3), noise.gaussian(0.9, 4.0), noise.gumbel(3.0)],
    ids=lambda d: f"{d.kind.value}@{d.location}")
def test_draw_operands_are_sealed_0d_arrays(d):
    """A fresh law's array-draw operands (scale, -scale, location) are 0-d
    float arrays, read-only and beyond being made writable, and its first
    array draw has the bits of the law's scalar draws."""
    u = np.random.default_rng(9).random(61)
    want = np.array([noise.from_uniform(d, x) for x in u.tolist()])
    fresh = noise.NoiseDist(d.kind, d.scale, d.location)
    assert noise.from_uniform(fresh, u.copy()).tobytes() == want.tobytes()
    for operand, value in zip(fresh._operands,
                              (d.scale, -d.scale, d.location)):
        assert operand.shape == () and operand.dtype == np.float64
        assert operand.tobytes() == np.float64(value).tobytes()
        assert not operand.flags.writeable
        with pytest.raises(ValueError):
            operand.flags.writeable = True


def test_the_correction_operand_is_a_sealed_0d_array():
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=5, k_max=300,
                    variant=Variant.EXP_OPT_CORR, k_est=60)
    r = cfg._r
    assert r.shape == () and r.dtype == np.float64
    assert r.tobytes() == np.float64(cfg._laws[2]).tobytes()
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r.flags.writeable = True


def test_a_dataset_builds_its_stream_columns_once():
    """Every shuffle of a dataset reads the columns it kept on the first:
    its own id and score arrays and one stride-0 threshold column, so a
    stream adds no array but its order; ``==`` ignores them."""
    ds, twin = data.gen_binary(500, 20), data.gen_binary(500, 20)
    streams = [data.shuffle_and_stream(ds, np.random.default_rng(k))
               for k in range(3)]
    ids, scores, thresholds = ds._columns
    assert ids is ds.ids and scores is ds.scores
    assert thresholds.strides == (0,) and thresholds.size == ds.n_items
    assert np.all(thresholds == ds.threshold)
    assert all(s.columns is ds._columns for s in streams)
    assert ds == twin and "_columns" not in vars(twin)
    assert streams[0] == data.shuffle_and_stream(twin,
                                                 np.random.default_rng(0))
