"""Golden outputs of the harness paths the benchmark's sweep digest misses.

Each case runs one `svtkit` command at a fixed seed and pins the sha256 of
its CSV, with the nondeterministic wall_time_ms column dropped. A change
of the random draw order or of any computed bit shows up here.

The ingest case reads TRANSACTIONS, written to a fixed file name in the
test's temporary directory and passed where its argv says TRANSACTIONS_PATH.
"""

import csv
import hashlib
import io
import json

import pytest

from svtkit import cli

TRANSACTIONS = "3 1 4 1 5\n9 2 6\n\n5 3 5\n8 9 7 9 3\n2 3 8 4 6\n  \n26 4 3\n"
TRANSACTIONS_PATH = "<transactions>"

GOLDEN = {
    "accuracy": (["plot-series", "--kind", "accuracy",
                  "--params", json.dumps({"trials": 300})],
        "3c457da541a73c46b579c54cb2251b85"
        "26c08bee037fd33f8c3e98ce8e930b1a"),
    "traverses": (["plot-series", "--kind", "traverses",
                   "--params", json.dumps({"repetitions": 3,
                                           "n_items": 2000})],
        "a932793ee1931fa3ee73bb37a34913b0"
        "bfa7a863d4f8d2a1ba422f249301affa"),
    "resample-append": (["sweep", "--dataset", "binary", "--n-items", "3000",
                         "--variants", "exp-opt,exp-mean,lap,gau,upper",
                         "--eps", "0.5,1", "--c", "20", "--traverses", "1,3",
                         "--reps", "2", "--seed", "5", "--resample",
                         "--append"],
        "4f8e6b8f1f4458f79f3797f2e21d220a"
        "4138d1adc058d2ffa9e2d3bc0a46395c"),
    "monotonic": (["sweep", "--dataset", "zipf", "--n-items", "500",
                   "--variants", "exp-opt,exp-mean,exp-none,lap,gau,gum,upper",
                   "--eps", "0.5,1", "--c", "10", "--reps", "2",
                   "--seed", "9", "--monotonic"],
        "5dc37cd6e2a2a3de20020e6016b1f96e"
        "3babb5b21ec211e21d0aa046286915ca"),
    "correction-table": (["correction-table"],
        "ec90b507953ef741cabc909e8506e24e"
        "e584c8121aee5cd91459e7259f03a732"),
    "correction-table-monotonic": (["correction-table", "--monotonic",
                                    "--alpha", "3"],
        "0699e98b8f3ea91085bd1ddc21abf4a3"
        "4c0608edaf683939b729df627c2850b5"),
    "variance": (["plot-series", "--kind", "variance"],
        "9805deba5d0cee1275bd6a4c76520cd6"
        "cdf31df83365d7c145958b4538da402b"),
    "correction-sweep": (["plot-series", "--kind", "correction-sweep"],
        "62fa154a513d9c1a258f622c362570d8"
        "029876f3b2d98d33a5577638dca3f6b6"),
    "correction-sweep-monotonic": (["plot-series", "--kind",
                                    "correction-sweep", "--params",
                                    json.dumps({"monotonic": True,
                                                "alpha": 2})],
        "85087b2aefc5066b48fc4e5ba4aa11cd"
        "013abbedab882b91d8c23cc868bd41c2"),
    "gen-binary": (["gen", "--dataset", "binary", "--n-items", "500",
                    "--n-positive", "20"],
        "dd74878a1fbf4c4dcd1e40ba3583e212"
        "6e92c66a19688aaf0d6001facae03121"),
    "gen-zipf": (["gen", "--dataset", "zipf", "--n-items", "500"],
        "0c9ee0a85b289ea22d14b3b387c6b10f"
        "21da9fc71cdeadf670cecad703028ec6"),
    "ingest": (["ingest", "--path", TRANSACTIONS_PATH, "--threshold", "2.5"],
        "d87e7579dad5fb3c08fe8eb7ae0b8646"
        "afadd5d6f24bb2f7f654083475a8731f"),
}


def output_digest(argv, tmp_path) -> str:
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_ms"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [row[i] for i in keep] for row in rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, tmp_path):
    argv, digest = GOLDEN[case]
    transactions = tmp_path / "transactions.txt"
    transactions.write_text(TRANSACTIONS)
    argv = [str(transactions) if a == TRANSACTIONS_PATH else a for a in argv]
    assert output_digest(argv, tmp_path) == digest
