"""Dataset construction: synthetic generators, transaction ingestion, scores files."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import checks
from .svt import QueryStream, Record, frozen, sealed

BINARY_THRESHOLD = 500.0
ZIPF_THRESHOLD = 200.0
_INT64 = np.iinfo(np.int64)
_ROW = [("id", np.int64), ("score", float)]


class Items:
    """Read-only view of parallel id and score arrays as (id, score) pairs,
    the form perfbench hands to ``GroundTruth.from_items``."""

    def __init__(self, ids: np.ndarray, scores: np.ndarray) -> None:
        self.ids = ids
        self.scores = scores

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self.ids.tolist(), self.scores.tolist())


@dataclass(frozen=True, init=False, eq=False)
class ScoredDataset(Record):
    """Items -- unique int64 ids with finite float64 scores, taken as
    aligned columns -- and the predefined selection threshold. ``items``
    reads them as an :class:`Items` view of (id, score) pairs, the view
    perfbench reads."""

    name: str
    ids: np.ndarray
    scores: np.ndarray
    threshold: float

    def __init__(self, name: str, ids, scores, threshold: float) -> None:
        checks.finite(threshold=threshold)
        vars(self).update(name=name, ids=frozen(ids, np.int64),
                          scores=frozen(scores, float),
                          threshold=float(threshold))
        if self.ids.size == 0:
            raise ValueError("a dataset needs at least one item")
        checks.unique_finite(self.ids, self.scores)

    @property
    def items(self) -> Items:
        return Items(self.ids, self.scores)

    @property
    def n_items(self) -> int:
        return self.ids.size


def gen_binary(n_items: int = 10000, n_positive: int = 100) -> ScoredDataset:
    """Two-level synthetic dataset: n_positive items score 1000, the rest 0."""
    checks.count(1, n_items=n_items)
    checks.count(0, n_positive=n_positive)
    if n_positive > n_items:
        raise ValueError(f"n_positive={n_positive} exceeds n_items={n_items}")
    ids = np.arange(1, n_items + 1)
    return ScoredDataset("binary", sealed(ids),
                         sealed(np.where(ids <= n_positive, 1000.0, 0.0)),
                         BINARY_THRESHOLD)


def gen_zipf(n_items: int = 10000) -> ScoredDataset:
    """Power-law synthetic dataset: item i scores 10000/i."""
    checks.count(1, n_items=n_items)
    # IEEE division is correctly rounded, so each score is bit-identical
    # to the Python float 10000.0 / i.
    ids = np.arange(1, n_items + 1)
    return ScoredDataset("zipf", sealed(ids), sealed(10000.0 / ids),
                         ZIPF_THRESHOLD)


def ingest_transactions(path: str | Path, threshold: float) -> ScoredDataset:
    """Score items by how many transactions contain them.

    The file holds one transaction per line as whitespace-separated
    nonnegative integer item ids; a duplicated id inside a line still
    counts once. Items come out sorted by id.
    """
    checks.finite(threshold=threshold)
    path = Path(path)
    counts: Counter[int] = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                ids = {int(t) for t in tokens}
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed transaction "
                    f"{line.strip()!r}") from None
            if any(not 0 <= i <= _INT64.max for i in ids):
                raise ValueError(f"{path}: line {lineno}: item ids must lie "
                                 f"in [0, {_INT64.max}]")
            counts.update(ids)
    if not counts:
        raise ValueError(f"{path}: no transactions found")
    ids, scores = zip(*sorted(counts.items()))
    return ScoredDataset(path.stem, ids, scores, float(threshold))


def write_scores(ds: ScoredDataset, path: str | Path) -> None:
    """Persist a dataset as CSV rows id,score under a metadata header line."""
    if "\n" in ds.name or "\r" in ds.name:
        raise ValueError(f"dataset name {ds.name!r} holds a line break, which "
                         f"the one-line scores header cannot hold")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# name={ds.name} threshold={ds.threshold!r}\n")
        fh.writelines(f"{item},{score!r}\n" for item, score in ds.items)


def read_scores(path: str | Path) -> ScoredDataset:
    """Read a dataset written by :func:`write_scores` (exact round-trip)."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        meta, sep, thr = header[2:].rpartition(" threshold=")
        if not (header.startswith("# name=") and sep):
            raise ValueError(f"{path}: missing scores header, got {header!r}")
        try:
            threshold = float(thr)
        except ValueError:
            raise ValueError(f"{path}: line 1: threshold must be a number, "
                             f"got {thr!r}") from None
        name = meta[len("name="):]
        body = fh.tell()
        # The body holds fewer rows than this bound, so loadtxt allocates
        # its rows once, at the bound, instead of growing them.
        bound = _commas(path) + 1
        try:
            with warnings.catch_warnings():
                # An empty body is reported below, with the file's name, and
                # a blank line does not count towards max_rows, as numpy warns.
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                warnings.filterwarnings("ignore", "Input line .* no data")
                # By path, not through fh, which numpy reads more slowly.
                rows = np.loadtxt(path, dtype=_ROW, delimiter=",",
                                  comments=None, ndmin=1, skiprows=1,
                                  encoding="utf-8", max_rows=bound)
        except ValueError:
            # The line-by-line parser accepts blank lines with spaces and
            # names the line of a malformed row.
            fh.seek(body)
            rows = np.array(list(_score_rows(fh, path)), dtype=_ROW)
    if rows.size >= bound:
        raise ValueError(f"{path}: the file grew while it was read")
    rows = sealed(rows)
    try:
        return ScoredDataset(name, rows["id"], rows["score"], threshold)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _commas(path: Path) -> int:
    """The commas in a file, counted in 1 MB blocks: each row that
    ``read_scores`` accepts holds exactly one, whatever its line ends."""
    with open(path, "rb") as fh:
        return sum(block.count(b",")
                   for block in iter(lambda: fh.read(1 << 20), b""))


def _score_rows(lines: Iterable[str], path: Path) -> Iterator[tuple[int, float]]:
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            item, score = line.split(",")
            item, score = int(item), float(score)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: expected id,score") from None
        if not _INT64.min <= item <= _INT64.max:
            raise ValueError(f"{path}: line {lineno}: id {item} is outside "
                             f"int64")
        yield item, score


def shuffle_and_stream(ds: ScoredDataset, rng: np.random.Generator) -> QueryStream:
    """Uniformly permute the items and pair each with the dataset threshold.
    The stream reads the dataset's arrays through the permutation; ``rng``
    must be a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        checks.instance(np.random.Generator, rng=rng)
    # The dataset's ids are unique and its values finite: no second check.
    return QueryStream.permuted(ds.ids, ds.scores, ds.threshold,
                                sealed(rng.permutation(ds.n_items)))
