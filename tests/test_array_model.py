"""The array data model: validation at construction and the scores-file
reader's two parse paths."""

import pytest

from svtkit import data
from svtkit.metrics import GroundTruth
from svtkit.svt import QueryStream

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: QueryStream.with_threshold([(1, 1.0), (2, NAN)], 0.0),
    lambda: QueryStream.with_threshold([(1, 1.0)], INF),
    lambda: QueryStream([(1, -INF, 0.0)]),
    lambda: data.ScoredDataset("x", [(1, NAN)], threshold=1.0),
    lambda: data.ScoredDataset("x", [(1, 2.0), (2, INF)], threshold=1.0),
    lambda: GroundTruth(ranked_ids=(1, 2), scores=(NAN, 1.0), threshold=0.0,
                        c=1),
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
    assert dict(ds.items) == {1: 2.5, 3: 0.5}


@pytest.mark.parametrize("row", ["4,x", "4", "4,1,2", "4.5,1.0"])
def test_read_scores_names_malformed_line(tmp_path, row):
    path = tmp_path / "bad.scores"
    path.write_text(f"# name=s threshold=1.0\n1,2.5\n2,3.5\n{row}\n")
    with pytest.raises(ValueError, match="line 4"):
        data.read_scores(path)
