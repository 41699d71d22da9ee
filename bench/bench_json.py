"""BENCH files: one JSON summary of a checkout's perfbench runs, and their
comparison.

``record`` reads the records that ``perfbench/run.py --out`` appended to
one or more files and writes one JSON object: the commit checked out,
whether ``src/`` differs from it and ``src_sha256``, a content hash of
``src/`` (sha256 over each ``src/**/*.py`` file's path relative to
``src/``, a NUL and the sha256 of its bytes, in path order), so a file
recorded before its commit still names its tree; ``recorded_at`` (UTC,
ISO 8601) and the host's ``boot_id`` (null if unreadable), which tell two
sessions apart; numpy's dispatched CPU features; and per
workload the runs' seeds, operations attempted and failed, the first run's
environment and, for each end-to-end metric of BENCHMARK.json, the median,
quartiles, run count and every run's value over the untraced runs. From
the traced runs (``--trace 1``) it keeps, under ``per_layer``, their seeds
and, for each per-layer metric, the median, run count and every run's
value (a metric a workload does not report is null). It adds the ``src/``
line split into code, docstring, comment and blank lines, in total and per
file: a docstring line is one of a string that stands alone as a
statement, a comment line holds a comment and no code. ``--tier1 LOG``
adds ``tier1``, the passed and failed counts and the seconds of pytest's
final summary line in a saved tier-1 log (errors count as failed); the
field is null without it. ``floors`` holds the best-of-5 microseconds
of the sweep cell's and the cold correction's floors, taken in one fresh
subprocess over the checkout's ``src/``: ``rng.permutation(10**4)`` (a
sweep cell's shuffle), ``rng.permutation(10**6)`` (a sweep-1e6 cell's),
``cli.cell_rng`` (a cell's random stream), and on the default grid the
two-row ``numpy.fft.rfft`` of a (2, 80000) block, the one-row
``numpy.fft.irfft`` to 80,000 points (a cold call's two transforms) and
the 79,999-point ``numpy.cumsum`` (its running cdf). A change that
leaves them alone moves its cells and calls by its own work; one that
moves them shows host drift.

``compare`` prints each file's commit, ``src_sha256[:12]``,
``recorded_at`` and boot id, both files' floors side by side
("unrecorded" where a file has none), and a warning line that its verdicts mix host
drift with the change: two files are two recordings, and a shared boot id
does not make them one session (sessions on one boot share it). Then, for
every workload in both files, one verdict per end-to-end metric from
``perfbench/compare.py``'s ``verdict`` over the runs' values, and the
workload's summary verdict; and last both files' ``tier1`` values
("unrecorded" where a file has none). A gain claim rests on alternating
pairs run in one session, not on two files. Standard library only (numpy's
CPU features are read in a child process).

    python3 perfbench/run.py --workload all --seed 1 --out runs.jsonl
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out runs.jsonl
    python3 -m pytest -q > tier1.log
    python3 bench/bench_json.py record runs.jsonl --tier1 tier1.log \
        --out BENCH_38.json
    python3 bench/bench_json.py compare BENCH_37.json BENCH_38.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import tokenize
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import quartiles, summary, verdict  # noqa: E402

CPU_FEATURES = ("import json, numpy._core._multiarray_umath as m; print("
                "json.dumps(sorted(k for k, v in m.__cpu_features__.items() "
                "if v)))")
BLANK_TOKENS = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BOOT_ID = Path("/proc/sys/kernel/random/boot_id")
# The floors' best-of-5 microseconds, printed as JSON by a fresh process
# whose first argument is the src/ directory to import svtkit from.
FLOORS = """
import json, sys, timeit
sys.path.insert(0, sys.argv[1])
import numpy as np
from svtkit import cli
rng = np.random.default_rng(0)
rows = rng.random((2, 80000))
spectrum, out = np.fft.rfft(rows[:1], axis=1)[0], np.empty(80000)
mass, cum = rng.random(79999), np.empty(80000)
calls = {"permutation_1e4_us": (lambda: rng.permutation(10**4), 200),
         "permutation_1e6_us": (lambda: rng.permutation(10**6), 3),
         "cell_rng_us": (lambda: cli.cell_rng(0, 0.5, "lap", 5, 0), 1000),
         "rfft_2x80000_us": (lambda: np.fft.rfft(rows, axis=1), 20),
         "irfft_80000_us": (lambda: np.fft.irfft(spectrum, 80000, out=out), 20),
         "cumsum_79999_us": (lambda: np.cumsum(mass, out=cum[1:]), 100)}
print(json.dumps({name: round(min(timeit.repeat(call, number=n, repeat=5))
                              / n * 1e6, 3) for name, (call, n) in calls.items()}))
"""
# pytest's final summary line, with or without its rule of "=":
# "1 failed, 1626 passed, 2 warnings in 50.25s (0:00:50)".
SUMMARY = re.compile(r"=*\s*((?:\d+ \w+, )*\d+ \w+) in ([\d.]+)s"
                     r"(?: \([\d:]+\))?\s*=*")


def line_split(source: str) -> Counter:
    """Lines of Python source by kind: code, docstring, comment, blank."""
    code, doc, comment = set(), set(), set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    before = tokenize.NEWLINE  # the last token that was not a comment or NL
    for i, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type not in BLANK_TOKENS:
            alone = (tok.type == tokenize.STRING
                     and before in (tokenize.NEWLINE, tokenize.INDENT,
                                    tokenize.DEDENT)
                     and tokens[i + 1].type == tokenize.NEWLINE)
            (doc if alone else code).update(lines)
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            before = tok.type
    total = len(source.splitlines())
    doc -= code
    comment -= code | doc
    return Counter(code=len(code), docstring=len(doc), comment=len(comment),
                   blank=total - len(code | doc | comment))


def src_lines(checkout: Path) -> dict:
    files = {str(p.relative_to(checkout / "src")):
             line_split(p.read_text(encoding="utf-8"))
             for p in sorted((checkout / "src").rglob("*.py"))}
    return {"total": dict(sum(files.values(), Counter())),
            "files": {name: dict(split) for name, split in files.items()}}


def src_sha256(checkout: Path) -> str:
    src = checkout / "src"
    digest = hashlib.sha256()
    for name in sorted(p.relative_to(src).as_posix()
                       for p in src.rglob("*.py")):
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256((src / name).read_bytes()).digest())
    return digest.hexdigest()


def boot_id() -> str | None:
    try:
        return BOOT_ID.read_text(encoding="ascii").strip() or None
    except OSError:
        return None


def tier1(log: str) -> dict:
    """Passed and failed tests (errors count as failed) and seconds, from
    the last pytest summary line in a saved log."""
    text = Path(log).read_text(encoding="utf-8", errors="replace")
    for line in reversed(text.splitlines()):
        found = SUMMARY.fullmatch(line.strip())
        if found:
            counts = Counter()
            for n, kind in re.findall(r"(\d+) (\w+)", found[1]):
                counts[kind.rstrip("s")] += int(n)  # "1 error", "2 errors"
            return {"passed": counts["passed"],
                    "failed": counts["failed"] + counts["error"],
                    "seconds": float(found[2])}
    raise SystemExit(f"{log}: no pytest summary line")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict = {}
    traced: dict = {}
    for path in args.runs:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line) if line.strip() else None
                if rec:
                    (traced if rec["trace"] else runs).setdefault(
                        rec["workload"], []).append(rec)
    workloads = {}
    for name, recs in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                                  "q3": q3, "runs": len(values),
                                  "values": values}
        workloads[name] = {
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "correct": all(r["correct"] for r in recs),
            "env": recs[0]["env"], "metrics": metrics}
    for name, recs in traced.items():
        layers = {}
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            known = [v for v in values if v is not None]
            layers[m["name"]] = {
                "unit": m["unit"], "runs": len(known), "values": values,
                "median": statistics.median(known) if known else None}
        workloads.setdefault(name, {})["per_layer"] = {
            "seeds": [r["seed"] for r in recs],
            "correct": all(r["correct"] for r in recs), "metrics": layers}
    checkout = Path(args.checkout).resolve()
    features = subprocess.run([sys.executable, "-c", CPU_FEATURES], check=True,
                              capture_output=True, text=True).stdout
    bench = {"commit": git(checkout, "rev-parse", "HEAD"),
             "src_uncommitted": bool(git(checkout, "status", "--porcelain",
                                         "--", "src")),
             "src_sha256": src_sha256(checkout),
             "recorded_at": datetime.now(timezone.utc).isoformat(
                 timespec="seconds"),
             "boot_id": boot_id(),
             "cpu_features": json.loads(features),
             "src_lines": src_lines(checkout),
             "tier1": tier1(args.tier1) if args.tier1 else None,
             "floors": json.loads(subprocess.run(
                 [sys.executable, "-c", FLOORS, str(checkout / "src")],
                 check=True, capture_output=True, text=True).stdout),
             "workloads": workloads}
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n",
                              encoding="utf-8")
    return 0


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (args.a, args.b))
    for path, side in ((args.a, a), (args.b, b)):
        dirty = " with uncommitted src/" if side["src_uncommitted"] else ""
        sha = (side.get("src_sha256") or "unrecorded")[:12]
        print(f"{path}: {side['commit'][:7]}{dirty}, src {sha}, src lines "
              f"{side['src_lines']['total']}")
        print(f"  recorded {side.get('recorded_at') or 'unrecorded'}, "
              f"boot id {side.get('boot_id') or 'unrecorded'}")
    floors = [side.get("floors") or {} for side in (a, b)]
    print("floors, best of 5 in one fresh process (us)")
    for name in dict.fromkeys([*floors[0], *floors[1]]):
        print(f"  {name:<20} " + " -> ".join(
            f"{side[name]:10.4g}" if name in side else "unrecorded"
            for side in floors))
    print("two recordings: verdicts mix host drift with the change")
    # A workload with traced runs only has per-layer metrics and no verdicts.
    for wl in [wl for wl in a["workloads"] if "metrics" in a["workloads"][wl]
               and "metrics" in b["workloads"].get(wl, {})]:
        wa, wb = a["workloads"][wl]["metrics"], b["workloads"][wl]["metrics"]
        verdicts = []
        print(wl)
        for m in spec["end_to_end"]:
            name = m["name"]
            v = verdict(wa[name]["values"], wb[name]["values"], m["better"],
                        m["bound"])
            verdicts.append(v)
            print(f"  {name:<14} {wa[name]['median']:12.5g} -> "
                  f"{wb[name]['median']:12.5g} {m['unit']:<4} "
                  f"n={wa[name]['runs']}/{wb[name]['runs']}  {v}")
        print(f"{wl:<16} {summary(verdicts)}")
    print("tier1   " + " -> ".join(
        "unrecorded" if not side.get("tier1") else
        "{passed} passed, {failed} failed, {seconds} s".format(**side["tier1"])
        for side in (a, b)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write a BENCH file from run records")
    rec.add_argument("runs", nargs="+", help="perfbench/run.py --out files")
    rec.add_argument("--out", required=True, help="the BENCH file to write")
    rec.add_argument("--checkout", default=str(ROOT),
                     help="the checkout the runs ran (commit and src lines)")
    rec.add_argument("--tier1", default=None, metavar="LOG",
                     help="a saved tier-1 pytest log: records its summary")
    rec.set_defaults(run=record)
    cmp = sub.add_parser("compare", help="verdicts between two BENCH files")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.set_defaults(run=compare)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
