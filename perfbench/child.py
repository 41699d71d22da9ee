"""One benchmark process, started by run.py.

Modes:
    --prepare      write the sweep-1e6 scores file, then exit
    --setup-only   bring a fresh process to the workload's first timed
                   operation and report how long that took
    (default)      run the workload: measure it untraced, check every
                   operation and, with --trace 1, re-drive it with spans

The last line of standard output is one JSON object. Only the standard
library is imported before ``import svtkit``, so that import is timed
whole, numpy and scipy included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter of the parent just before spawning")
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--scores", help="sweep-1e6 scores file")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--prepare", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import svtkit
    import_s = time.perf_counter() - t0
    src = Path(args.src).resolve()
    if Path(svtkit.__file__).resolve().parent.parent != src:
        print(f"svtkit was imported from {svtkit.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads
    from speed import NOMINAL_S, SpeedReference

    scores = Path(args.scores) if args.scores else None
    if args.prepare:
        workloads.write_big_scores(scores)
        result: dict = {}
    else:
        wl = workloads.make(args.workload, Path(args.out_dir), scores)
        if args.setup_only:
            stages = wl.setup()
            setup_s = time.perf_counter() - args.spawned_at
            speed = SpeedReference()
            for _ in range(3):
                speed.sample()
            result = {"setup_s": setup_s * NOMINAL_S / statistics.median(speed.seconds),
                      "raw": {"setup_s": setup_s},
                      "stages": {"import_s": import_s, **stages}}
        else:
            result = wl.run(args.seed, args.seconds, bool(args.trace),
                            args.spawned_at, Path(args.out_dir))
            result["stages"] = {"import_s": import_s}
            result["versions"] = {"python": sys.version.split()[0],
                                  "numpy": numpy.__version__,
                                  "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
