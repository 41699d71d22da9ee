"""Dataset generation, transaction ingestion, and the scores file format."""

import functools
import re
import warnings

import numpy as np
import pytest

from svtkit import data


def test_binary_defaults():
    ds = data.gen_binary()
    assert ds.n_items == 10000
    assert ds.threshold == 500.0
    assert set(ds.scores.tolist()) == {0.0, 1000.0}
    assert np.count_nonzero(ds.scores == 1000.0) == 100


def test_binary_no_positives():
    ds = data.gen_binary(50, 0)
    assert (ds.scores == 0.0).all()


def test_binary_rejects_excess_positives():
    with pytest.raises(ValueError):
        data.gen_binary(10, 11)


def test_zipf_scores():
    ds = data.gen_zipf()
    assert ds.n_items == 10000
    assert ds.threshold == 200.0
    assert (ds.ids[0], ds.scores[0]) == (1, 10000.0)
    assert (ds.ids[49], ds.scores[49]) == (50, 200.0)  # exactly at threshold
    scores = ds.scores.tolist()
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_ingest_hand_case(tmp_path):
    f = tmp_path / "tiny.dat"
    f.write_text("1 2\n2 3\n2\n")
    ds = data.ingest_transactions(f, threshold=2.0)
    assert dict(zip(ds.ids.tolist(), ds.scores.tolist())) == {
        1: 1.0, 2: 3.0, 3: 1.0}
    assert ds.threshold == 2.0
    assert ds.name == "tiny"


def test_ingest_duplicate_item_in_line_counts_once(tmp_path):
    f = tmp_path / "dup.dat"
    f.write_text("5 5 5\n5\n")
    ds = data.ingest_transactions(f, threshold=1.0)
    assert dict(zip(ds.ids.tolist(), ds.scores.tolist())) == {5: 2.0}


def test_ingest_skips_blank_lines_and_sums(tmp_path):
    f = tmp_path / "blank.dat"
    f.write_text("1 2 3\n\n2 3\n   \n3\n")
    ds = data.ingest_transactions(f, threshold=1.0)
    # sum of scores equals sum of distinct-item counts per transaction
    assert ds.scores.sum() == 3 + 2 + 1
    assert ds.scores.max() <= 3  # no score beyond the line count


def test_ingest_malformed_line_reports_number(tmp_path):
    f = tmp_path / "bad.dat"
    f.write_text("1 2\n3 x 4\n")
    with pytest.raises(ValueError, match="line 2"):
        data.ingest_transactions(f, threshold=1.0)


def test_ingest_negative_id_rejected(tmp_path):
    f = tmp_path / "neg.dat"
    f.write_text("1 -2\n")
    with pytest.raises(ValueError, match="line 1"):
        data.ingest_transactions(f, threshold=1.0)


def test_ingest_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.dat"
    f.write_text("\n  \n")
    with pytest.raises(ValueError):
        data.ingest_transactions(f, threshold=1.0)


def test_ingest_threshold_recorded(tmp_path):
    f = tmp_path / "kosarak_sample.dat"
    f.write_text("1 2\n")
    ds = data.ingest_transactions(f, threshold=10500.0)
    assert ds.threshold == 10500.0


def test_scores_roundtrip(tmp_path):
    ds = data.gen_zipf(200)
    path = tmp_path / "zipf.scores"
    data.write_scores(ds, path)
    back = data.read_scores(path)
    assert back == ds


def test_scores_roundtrip_awkward_name_and_threshold(tmp_path):
    src = tmp_path / "a b c.dat"
    src.write_text("1 2\n2\n")
    ds = data.ingest_transactions(src, threshold=0.125)
    path = tmp_path / "out.scores"
    data.write_scores(ds, path)
    assert data.read_scores(path) == ds


@pytest.mark.parametrize("threshold", [np.float64(1.0), np.float32(0.1)])
def test_scores_roundtrip_numpy_scalar_threshold(tmp_path, threshold):
    ds = data.ScoredDataset("s", [1, 2], [2.0, 0.5], threshold)
    assert type(ds.threshold) is float
    path = tmp_path / "s.scores"
    data.write_scores(ds, path)
    back = data.read_scores(path)
    assert back == ds
    assert back.threshold == float(threshold)


@pytest.mark.parametrize("name", ["two\nlines", "carriage\rreturn"])
def test_write_scores_rejects_a_line_break_in_the_name(tmp_path, name):
    ds = data.ScoredDataset(name, [1], [2.0], 1.0)
    path = tmp_path / "s.scores"
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        data.write_scores(ds, path)
    assert not path.exists()


def test_shuffle_and_stream_permutation():
    ds = data.gen_zipf(100)
    rng = np.random.default_rng(9)
    s = data.shuffle_and_stream(ds, rng)
    assert len(s) == 100
    assert sorted(s.ids.tolist()) == list(range(1, 101))
    assert (s.thresholds == ds.threshold).all()
    again = data.shuffle_and_stream(ds, np.random.default_rng(9))
    assert s == again
    other = data.shuffle_and_stream(ds, np.random.default_rng(10))
    assert s != other


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.ScoredDataset(name="x", ids=(), scores=(), threshold=1.0)
    with pytest.raises(ValueError):
        data.ScoredDataset(name="x", ids=(1, 1), scores=(1.0, 2.0),
                           threshold=1.0)
    with pytest.raises(ValueError):
        data.ScoredDataset(name="x", ids=(1,), scores=(1.0,),
                           threshold=float("nan"))


def test_read_scores_requires_header(tmp_path):
    path = tmp_path / "bare.scores"
    path.write_text("1,2.0\n")
    with pytest.raises(ValueError, match="missing scores header"):
        data.read_scores(path)


def test_read_scores_header_without_threshold_names_file_and_header(tmp_path):
    path = tmp_path / "bare.scores"
    path.write_text("# name=s\n1,2.0\n")
    with pytest.raises(ValueError) as err:
        data.read_scores(path)
    assert str(path) in str(err.value) and "'# name=s'" in str(err.value)


@pytest.mark.parametrize("reader, text, line", [
    (data.read_scores, "# name=s threshold=abc\n1,2.0\n", "line 1"),
    (data.read_scores, "# name=s threshold=1.0\n1,2.0\n"
                       "100000000000000000000,3.0\n", "line 3"),
    (functools.partial(data.ingest_transactions, threshold=1.0),
     "1 2\n\n100000000000000000000 3\n", "line 3"),
], ids=["threshold", "read_scores id", "ingest id"])
def test_file_errors_name_the_file_and_line(tmp_path, reader, text, line):
    path = tmp_path / "bad.dat"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {line}:"):
        reader(path)


@pytest.mark.parametrize("text", [
    "# name=s threshold=nan\n1,2.0\n",
    "# name=s threshold=inf\n1,2.0\n",
    "# name=s threshold=1.0\n1,2.0\n1,3.0\n",
    "# name=s threshold=1.0\n1,nan\n",
    "# name=s threshold=1.0\n",
    "# name=s threshold=1.0\n\n\n",
], ids=["threshold nan", "threshold inf", "repeated id", "nan score",
        "header only", "blank body"])
def test_read_scores_content_errors_name_the_file(tmp_path, text):
    path = tmp_path / "bad.scores"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "):
            data.read_scores(path)


MIN_WIDTH = "".join(f"{i},{9 - i}\n" for i in range(10))


@pytest.mark.parametrize("body", [
    MIN_WIDTH,
    MIN_WIDTH.rstrip("\n"),
    "1,2.5\r\n2,-0.0\r\n3,1e-300\r\n",
    "1,2.5\r2,-0.0\r3,1e-300",
    "\n\n1,2.5\n\n\n2,0.1\n\n",
    "1,2.5\n   \n2,0.1\n \t\n",
], ids=["min width", "min width, no final newline", "crlf", "cr",
        "blank lines", "blank lines with spaces"])
@pytest.mark.parametrize("header", ["# name=s threshold=1.0",
                                    "# name=a,b threshold=1.0"])
def test_read_scores_reads_every_row(tmp_path, header, body):
    """Each row, bit for bit as int() and float() read it, whatever the line
    ends, blank lines and row widths; and no warning."""
    ends = "\r\n" if "\r\n" in body else "\r" if "\r" in body else "\n"
    path = tmp_path / "s.scores"
    path.write_bytes((header + ends + body).encode())
    rows = [line.split(",") for line in body.splitlines() if line.strip()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = data.read_scores(path)
    assert ds.name == header[len("# name="):-len(" threshold=1.0")]
    assert ds.ids.tolist() == [int(i) for i, _ in rows]
    assert ds.scores.tobytes() == np.array([float(s) for _, s in rows]).tobytes()


def test_read_scores_rejects_a_file_that_grew_after_its_count(tmp_path,
                                                               monkeypatch):
    """A file that gains a row between the count and the parse would fill
    the bound; simulated by a count taken before the last row was added."""
    path = tmp_path / "s.scores"
    path.write_text("# name=s threshold=1.0\n1,2.0\n2,3.0\n")
    commas = data._commas
    monkeypatch.setattr(data, "_commas", lambda p: commas(p) - 1)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*grew"):
        data.read_scores(path)
