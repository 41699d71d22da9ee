"""Cold correction calls: page faults, CPU time and peak memory per call.

Runs ``correction.optimal_correction`` on the 320 queries of perfbench's
correction-cold workload at one seed (batches 0-19, 16 queries each), with
the memo cleared before every call so each one builds its grid, after one
unmeasured warm-up call. Prints the minor page faults (``ru_minflt``) and
the user and system CPU milliseconds per call, and the process's maximum
resident set size. The queries come from ``perfbench/workloads.py``, so
they follow that workload's distribution. Standard library and numpy only.

    python3 bench/cold_correction.py
    python3 bench/cold_correction.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BATCHES = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the svtkit package")
    parser.add_argument("--seed", type=int, default=0,
                        help="perfbench seed of the queries")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    from svtkit import correction
    from workloads import correction_queries

    queries = [q for j in range(BATCHES)
               for q in correction_queries(args.seed, j)]
    correction.optimal_correction(queries[0])  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF)
    for q in queries:
        correction.optimal_correction.cache_clear()
        correction.optimal_correction(q)
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(queries)
    faults = (after.ru_minflt - before.ru_minflt) / n
    user_ms = 1e3 * (after.ru_utime - before.ru_utime) / n
    sys_ms = 1e3 * (after.ru_stime - before.ru_stime) / n
    print(f"svtkit from {args.src}, {n} cold calls at seed {args.seed}")
    print(f"minor faults per call  {faults:.0f}")
    print(f"user ms per call       {user_ms:.2f}")
    print(f"sys ms per call        {sys_ms:.2f}")
    print(f"max RSS                {after.ru_maxrss / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
