"""Compare two files of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload in both files and every end-to-end metric of
BENCHMARK.json, prints each side's median and quartiles (over the
untraced runs) and a verdict:

    worse       the new median is worse than the base median by more than
                the metric's bound
    unresolved  either side's spread (quartile distance over median) is
                wider than the bound, and not every new run beats every
                base run
    better      the new median is better by more than the base's own spread
    same        none of these

then one row per workload: worse if any metric is worse, else unresolved
if any is, else better if any is, else same. Per-layer medians from traced
runs are listed side by side, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a records file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else float("inf")
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "same"


def summary(verdicts: list) -> str:
    for v in ("worse", "unresolved", "better"):
        if v in verdicts:
            return v
    return "same"


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        b, n = base.get((wl, 0)), new.get((wl, 0))
        if not b or not n:
            continue
        print(f"{wl}")
        verdicts = []
        for m in spec["end_to_end"]:
            name = m["name"]
            v = verdict(b[name], n[name], m["better"], m["bound"])
            verdicts.append(v)
            print(f"  {name:<14} base {fmt(b[name])}  new {fmt(n[name])}  "
                  f"{m['unit']:<4} bound {m['bound']:<5} {v}")
        print(f"{wl:<16} {summary(verdicts)}")
    for wl in workloads:
        b, n = base.get((wl, 1)), new.get((wl, 1))
        if not b or not n:
            continue
        print(f"{wl} per layer (medians of traced runs)")
        for m in spec["per_layer"]:
            name = m["name"]
            print(f"  {name:<30} base {statistics.median(b[name]):12.5g}  "
                  f"new {statistics.median(n[name]):12.5g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
