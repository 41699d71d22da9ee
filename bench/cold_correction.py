"""Cold correction calls: time, page faults and memory per call.

Runs ``correction.optimal_correction`` on the 320 queries of perfbench's
correction-cold workload at one seed (batches 0-19, 16 queries each), with
the memo cleared before every call so each one builds its grid, after one
unmeasured warm-up call. Prints the median milliseconds per call and its
split into discretize (both laws, written into their arrays: ``_discretize``
where a checkout has it, else ``discretize``), forward (the ``numpy.fft.rfft``
calls), inverse (the rest of the convolution, ``_convolve_rows`` where a
checkout has it, else ``convolve_difference``: the product, the ``irfft``
and the brackets) and read (the rest: the grid bound, the shifted
reads of Gamma, log p and the argmax), each a median over the calls, and the
minor page faults (``ru_minflt``) per call. After the timed calls, an
untimed pass over the queries under ``tracemalloc`` gives each side's peak
traced allocation in one cold call (the largest over the queries; numpy's
arrays are traced, its FFT scratch is not), printed beside the process's
maximum resident set size. One checkout alone also gets the user and
system CPU milliseconds per call.

``--against`` loads a second checkout's ``svtkit`` under another package
name and runs it in the same process, query by query in alternating
order, so both sides share the machine's state; every ``(r, p)`` must be
equal bit for bit, or the run stops. ``--rounds`` repeats the 320 queries.
``--src`` and ``--against`` take a checkout's root or the directory
holding its ``svtkit``. The queries come from ``perfbench/workloads.py``,
so they follow that workload's distribution. Standard library and numpy
only.

    python3 bench/cold_correction.py
    python3 bench/cold_correction.py --against /path/to/other/checkout
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sweep_cells import load, package_dir

ROOT = Path(__file__).resolve().parents[1]
BATCHES = 20
COLUMNS = ("call", "discretize", "forward", "inverse", "read")

# Seconds spent in numpy.fft.rfft since the running cold call began; one
# side runs at a time, so each call's forward transforms are its own.
forward = [0.0]


def _timed(spent: list | dict, key, fn):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - t0
    return timed


class Side:
    """One checkout's ``svtkit.correction``, imported as package ``name``
    so two checkouts can share one process, with its discretize and
    convolve steps timed per call."""

    def __init__(self, label: str, src: Path, name: str) -> None:
        self.label, self.src = label, src
        self.correction, = load(src, name, "correction")
        self.spent = {"discretize": 0.0, "convolve": 0.0}
        self.rows: list[tuple[float, float, float, float, float, int]] = []
        self.peak = 0
        def own(private: str, public: str) -> str:
            return private if hasattr(self.correction, private) else public

        for stage, fname in (
                ("discretize", own("_discretize", "discretize")),
                ("convolve", own("_convolve_rows", "convolve_difference"))):
            setattr(self.correction, fname,
                    _timed(self.spent, stage, getattr(self.correction, fname)))

    def query(self, q):
        """q rebuilt from this side's ``CorrectionQuery``."""
        return self.correction.CorrectionQuery(b=q.b, lam=q.lam,
                                               alpha=q.alpha, k=q.k,
                                               m=q.m, e=q.e)

    def cold_call(self, q, record: bool = True) -> tuple[float, float]:
        self.correction.optimal_correction.cache_clear()
        self.spent.update(discretize=0.0, convolve=0.0)
        forward[0] = 0.0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        got = self.correction.optimal_correction(q)
        total = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if record:
            discretize, convolve = (self.spent["discretize"],
                                    self.spent["convolve"])
            self.rows.append((total, discretize, forward[0],
                              convolve - forward[0],
                              total - discretize - convolve, faults))
        return got

    def trace_peaks(self, queries) -> None:
        """Set ``peak`` to the largest peak of traced allocation in a cold
        call on one of ``queries``, over what was traced before the call."""
        tracemalloc.start()
        try:
            for q in queries:
                self.correction.optimal_correction.cache_clear()
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                self.correction.optimal_correction(q)
                self.peak = max(self.peak,
                                tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()

    def report(self) -> dict:
        columns = list(zip(*self.rows))
        out = {name: 1e3 * statistics.median(col)
               for name, col in zip(COLUMNS, columns)}
        out["faults"] = sum(columns[-1]) / len(self.rows)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="this side's checkout (default: this one)")
    parser.add_argument("--against", default=None,
                        help="a second checkout to compare, in one process")
    parser.add_argument("--seed", type=int, default=0,
                        help="perfbench seed of the queries")
    parser.add_argument("--rounds", type=int, default=1,
                        help="passes over the queries")
    args = parser.parse_args()
    src = package_dir(args.src)
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import correction_queries

    np.fft.rfft = _timed(forward, 0, np.fft.rfft)

    sides = [Side("src", src, "svtkit_src")]
    if args.against:
        sides.append(Side("against", package_dir(args.against),
                          "svtkit_against"))
    queries = [q for j in range(BATCHES)
               for q in correction_queries(args.seed, j)]
    per_side = [[side.query(q) for q in queries] for side in sides]
    for side, qs in zip(sides, per_side):
        side.cold_call(qs[0], record=False)  # warm-up
    order = list(zip(sides, per_side))
    before = resource.getrusage(resource.RUSAGE_SELF)
    for r in range(args.rounds):
        for i in range(len(queries)):
            turn = (r + i) % len(sides)
            got = [side.cold_call(qs[i])
                   for side, qs in order[turn:] + order[:turn]]
            if any(np.array(g).tobytes() != np.array(got[0]).tobytes()
                   for g in got[1:]):
                raise SystemExit(f"query {i}: the sides' (r, p) differ: "
                                 f"{got}")
    after = resource.getrusage(resource.RUSAGE_SELF)
    for side, qs in order:
        side.trace_peaks(qs)

    n = args.rounds * len(queries)
    print(f"{n} cold calls per side at seed {args.seed}"
          + (", (r, p) equal on every call" if args.against else ""))
    print(f"{'side':8} {'ms/call':>8} {'discretize':>11} {'forward':>8}"
          f" {'inverse':>8} {'read':>7} {'faults':>7} {'peak MB':>8}   src")
    reports = [side.report() for side in sides]
    for side, rep in zip(sides, reports):
        print(f"{side.label:8} {rep['call']:8.3f} {rep['discretize']:11.3f}"
              f" {rep['forward']:8.3f} {rep['inverse']:8.3f}"
              f" {rep['read']:7.3f} {rep['faults']:7.2f}"
              f" {side.peak / 2**20:8.2f}   {side.src}")
    if args.against:
        new, base = reports
        print("change   " + "  ".join(
            f"{name} {new[name] / base[name] - 1:+.1%}" for name in COLUMNS)
            + f"  peak {sides[0].peak / sides[1].peak - 1:+.1%}")
    else:
        print(f"user ms per call       "
              f"{1e3 * (after.ru_utime - before.ru_utime) / n:.2f}")
        print(f"sys ms per call        "
              f"{1e3 * (after.ru_stime - before.ru_stime) / n:.2f}")
    print(f"max RSS                {after.ru_maxrss / 1024:.1f} MB"
          + (" (one process, both sides)" if args.against else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
