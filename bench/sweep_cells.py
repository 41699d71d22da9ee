"""Sweep cells by variant group: cell time, cells per second, draws per answer.

Runs the criterion-7 grid (zipf and binary datasets, six variants, eps 0.1,
0.5 and 1.0, five appended traverses) and the criterion-8 grid (exp-opt at
eps 0.5 over 1, 2, 5 and 10 traverses) through ``cli.run_sweep``, once per
seed, and prints one JSON object. For each variant group -- baseline (lap,
exp-none, exp-mean), gau, exp-opt and upper, and all cells together -- it
gives the median and 90th percentile of the cells' ``wall_time_ms``, its
cells per second (cells over their summed ``wall_time_ms``; the "all" group's
is the in-process counterpart of perfbench's sweep ``ops_per_s``) and the
query noises drawn per answer (draws a skip passes over are not drawn).

Each side of a comparison runs every seed in one process, in an order that
rotates from seed to seed, so the sides share the machine's state; their
rows must be equal apart from ``wall_time_ms``, or the run stops.
``--against`` loads a second checkout's ``svtkit`` under another package
name and compares it with this one; the report gives each group's median,
p90 and cells-per-second change against it. ``--scores PATH`` runs
perfbench's sweep-1e6 grid instead (lap, exp-mean and upper at eps 0.5,
c = 50, one traverse, two repetitions) over that scores file (``svtkit gen
--dataset zipf --n-items 1000000 --out PATH`` writes perfbench's); its upper
group's draws per answer is the share of items the reference draws noise
for. ``--src`` and ``--against`` take a checkout's root or the directory
holding its ``svtkit``. Standard library and numpy only.

    python3 bench/sweep_cells.py --seeds 20
    python3 bench/sweep_cells.py --against /path/to/other/checkout
    python3 bench/sweep_cells.py --scores zipf-1e6.csv --seeds 5 --against ..
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path

import numpy as np

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
GROUP_ORDER = ("baseline", "gau", "exp-opt", "upper", "all")


def scores_grid(path: str) -> dict:
    """perfbench's sweep-1e6 grid over the scores file at ``path``."""
    return dict(dataset=str(Path(path).resolve()),
                variants=("lap", "exp-mean", "upper"), eps_values=(0.5,),
                c=50, traverses=(1,), repetitions=2, n_items=10**6)


def package_dir(path: str) -> Path:
    """The directory holding the ``svtkit`` package of a checkout."""
    root = Path(path).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "svtkit" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no svtkit package under {root}")


def load(src: Path, name: str, *modules: str) -> list:
    """The named modules of the ``svtkit`` in ``src``, imported as package
    ``name`` so two checkouts can share one process (svtkit imports its
    own modules relatively)."""
    spec = importlib.util.spec_from_file_location(
        name, src / "svtkit" / "__init__.py",
        submodule_search_locations=[str(src / "svtkit")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return [importlib.import_module(f"{name}.{m}") for m in modules]


class Side:
    """One checkout under test: its cells' times and draw counts per
    group. Query draws are counted per cell: run_sweep flushes its sink
    after the header and after each row, and each flush opens the next
    cell's count."""

    def __init__(self, label: str, src: Path, name: str,
                 grids: tuple = GRIDS) -> None:
        self.label, self.src, self.grids = label, src, grids
        self.cli, noise = load(src, name, "cli", "noise")
        self.cells: dict[str, list[float]] = {}
        self.counts: dict[str, list[int]] = {}
        self.drawn: list[int] = []
        from_uniform = noise.from_uniform

        def counted(d, u):
            if isinstance(u, np.ndarray):
                self.drawn[-1] += u.size
            return from_uniform(d, u)

        noise.from_uniform = counted

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        self.drawn.append(0)

    def one_pass(self, seed: int, record: bool = True) -> list[dict]:
        all_rows = []
        for grid in self.grids:
            self.drawn[:] = [0]
            rows = self.cli.run_sweep(
                self.cli.ExperimentConfig(seed=seed, **grid), out=self)
            all_rows += rows
            if not record:
                continue
            for row, draws in zip(rows, self.drawn[1:]):
                for group in (GROUPS[row["variant"]], "all"):
                    self.cells.setdefault(group, []).append(
                        row["wall_time_ms"])
                    total = self.counts.setdefault(group, [0, 0])
                    total[0] += draws
                    total[1] += row["n_a"]
        return all_rows

    def groups(self) -> dict:
        def p90(values):
            return statistics.quantiles(values, n=10, method="inclusive")[-1]

        return {group: {
            "cells": len(self.cells[group]),
            "cell_ms_p50": round(statistics.median(self.cells[group]), 4),
            "cell_ms_p90": round(p90(self.cells[group]), 4),
            "cells_per_s": round(len(self.cells[group])
                                 / (sum(self.cells[group]) / 1e3), 1),
            "draws_per_answer": float("%.4g" % (self.counts[group][0]
                                                / self.counts[group][1]))}
            for group in GROUP_ORDER if group in self.cells}


def untimed(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "wall_time_ms"}
            for row in rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="this side's checkout (default: this one)")
    parser.add_argument("--against", default=None,
                        help="a second checkout to compare, in one process")
    parser.add_argument("--seeds", type=int, default=20,
                        help="root seeds 0 .. N-1, one sweep pass each")
    parser.add_argument("--scores", default=None,
                        help="run perfbench's sweep-1e6 grid over this "
                             "scores file instead")
    args = parser.parse_args()
    src = package_dir(args.src)
    grids = GRIDS
    if args.scores:  # perfbench's sweep-1e6 grid
        if not Path(args.scores).is_file():
            parser.error(f"no scores file at {args.scores}")
        grids = (scores_grid(args.scores),)
    sides = [Side("src", src, "svtkit_src", grids)]
    if args.against:
        sides.append(Side("against", package_dir(args.against),
                          "svtkit_against", grids))

    for side in sides:
        side.one_pass(10**6, record=False)  # warm-up: imports, caches
    for seed in range(args.seeds):
        turn = seed % len(sides)
        rows = [side.one_pass(seed) for side in sides[turn:] + sides[:turn]]
        if any(untimed(r) != untimed(rows[0]) for r in rows[1:]):
            raise SystemExit(f"seed {seed}: the sides' rows differ")
    results = [{"side": side.label, "src": str(side.src),
                "groups": side.groups()} for side in sides]
    report = {"seeds": args.seeds, "scores": args.scores, "rows_equal": True,
              "results": results}
    if args.against:
        new, base = (r["groups"] for r in results)
        report["change_vs_against"] = {group: {
            stat: round(new[group][stat] / base[group][stat] - 1, 4)
            for stat in ("cell_ms_p50", "cell_ms_p90", "cells_per_s")}
            for group in new}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
