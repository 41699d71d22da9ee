"""The array data model: validation at construction, read-only columns,
the scores-file reader's two parse paths, and the views perfbench reads."""

import numpy as np
import pytest

from svtkit import cli, data, metrics
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


def test_columns_of_a_callers_array_are_views_not_copies():
    ids, scores = np.arange(1, 4), np.array([3.0, 2.0, 1.0])
    ds = data.ScoredDataset("d", ids, scores, 1.0)
    stream = QueryStream(ids, scores, 1.0)
    for column in (ds.ids, ds.scores, *stream.columns[:2]):
        assert np.shares_memory(column, ids) or np.shares_memory(column,
                                                                 scores)
    assert ids.flags.writeable and scores.flags.writeable


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
