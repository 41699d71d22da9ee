"""Sweep cells by variant group: median cell time and query draws per answer.

Runs the criterion-7 grid (zipf and binary datasets, six variants, eps 0.1,
0.5 and 1.0, five appended traverses) and the criterion-8 grid (exp-opt at
eps 0.5 over 1, 2, 5 and 10 traverses) through ``cli.run_sweep``, once per
seed, and prints one JSON object. For each variant group -- baseline (lap,
exp-none, exp-mean), gau, exp-opt and upper, and all cells together -- it
gives the median of the cells' ``wall_time_ms`` and the query noises drawn
per answer (draws a skip passes over are not drawn).

``--opening`` takes one or more sizes for ``svt._OPENING_CHUNK``, the first
chunk of traverse 1; the sizes take turns within each seed, in an order
that rotates from seed to seed, so they share the machine's state. 4096
gives the chunk ends of a checkout without an opening chunk. Without
``--opening`` the checkout's own value runs. Run it against another
checkout with ``--src``. Standard library and numpy only.

    python3 bench/sweep_cells.py --seeds 20
    python3 bench/sweep_cells.py --opening 256,512,1024
    python3 bench/sweep_cells.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

C7 = dict(variants=("exp-opt", "exp-mean", "exp-none", "lap", "gau", "upper"),
          eps_values=(0.1, 0.5, 1.0), c=50, traverses=(5,), append=True)
GRIDS = (
    dict(dataset="zipf", **C7),
    dict(dataset="binary", **C7),
    dict(dataset="zipf", variants=("exp-opt",), eps_values=(0.5,), c=50,
         traverses=(1, 2, 5, 10), append=True),
)
GROUPS = {"lap": "baseline", "exp-none": "baseline", "exp-mean": "baseline",
          "gau": "gau", "exp-opt": "exp-opt", "upper": "upper"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory holding the svtkit package")
    parser.add_argument("--seeds", type=int, default=20,
                        help="root seeds 0 .. N-1, one sweep pass each")
    parser.add_argument("--opening", default=None,
                        help="comma-separated sizes of traverse 1's first "
                             "chunk (default: the checkout's own)")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np

    from svtkit import cli, noise, svt

    sizes = ([int(s) for s in args.opening.split(",")] if args.opening
             else [getattr(svt, "_OPENING_CHUNK", None)])
    if args.opening and not hasattr(svt, "_OPENING_CHUNK"):
        parser.error(f"{args.src} has no svt._OPENING_CHUNK to set")

    # Query draws per cell: run_sweep flushes its sink after the header and
    # after each row, and each flush opens the next cell's count.
    drawn: list[int] = []
    from_uniform = noise.from_uniform

    def counted(d, u):
        if isinstance(u, np.ndarray):
            drawn[-1] += u.size
        return from_uniform(d, u)

    class Sink:
        def write(self, text: str) -> int:
            return len(text)

        def flush(self) -> None:
            drawn.append(0)

    noise.from_uniform = counted

    def one_pass(seed: int, size, cells: dict, counts: dict) -> None:
        if size is not None:
            svt._OPENING_CHUNK = size
        for grid in GRIDS:
            drawn[:] = [0]
            rows = cli.run_sweep(cli.ExperimentConfig(seed=seed, **grid),
                                 out=Sink())
            for row, draws in zip(rows, drawn[1:]):
                for group in (GROUPS[row["variant"]], "all"):
                    cells.setdefault(group, []).append(row["wall_time_ms"])
                    total = counts.setdefault(group, [0, 0])
                    total[0] += draws
                    total[1] += row["n_a"]

    results = {size: ({}, {}) for size in sizes}
    one_pass(10**6, sizes[0], {}, {})  # warm-up: imports, caches
    for seed in range(args.seeds):
        turn = seed % len(sizes)
        for size in sizes[turn:] + sizes[:turn]:
            one_pass(seed, size, *results[size])
    report = {"src": args.src, "seeds": args.seeds, "results": [
        {"opening_chunk": size, "groups": {
            group: {"cells": len(cells[group]),
                    "cell_ms_p50": round(statistics.median(cells[group]), 4),
                    "draws_per_answer": round(counts[group][0]
                                              / counts[group][1], 3)}
            for group in ("baseline", "gau", "exp-opt", "upper", "all")}}
        for size, (cells, counts) in results.items()]}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
