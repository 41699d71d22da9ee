"""Sweep memory: resident set size through a sweep, stage by stage.

Runs ``cli.run_sweep`` over the criterion-7 and criterion-8 grids of
``bench/sweep_cells.py`` or, with ``--scores PATH``, over perfbench's
sweep-1e6 grid on that scores file, for ``--passes`` passes (root seed j
for pass j), in one fresh process per side. Each side prints, one line per
mark, VmRSS (from ``/proc/self/status``) and the peak so far, ``ru_maxrss``,
in MB: after each load of the dataset, after the ground truth (the header
flush that ends ``run_sweep``'s set-up), after each cell and after each
pass. The report closes with each side's highest VmRSS per stage and its
final ``ru_maxrss``, so a memory claim can name the stage that holds the
peak before it names a gain.

``--against`` runs a second checkout's ``svtkit`` in its own fresh process
after this one's. ``--src`` and ``--against`` take a checkout's root or the
directory holding its ``svtkit``. Linux only (``/proc``); standard library
and numpy only.

    python3 bench/sweep_memory.py --scores zipf-1e6.csv
    python3 bench/sweep_memory.py --scores zipf-1e6.csv --against ..
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from sweep_cells import GRIDS, package_dir, scores_grid

STAGES = ("load", "truth", "cell", "pass")


def rss_mb() -> tuple[float, float]:
    """(VmRSS, ru_maxrss) of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmRSS:"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024, 1), round(peak / 1024, 1)


def child(src: str, grids: list, passes: int) -> None:
    """One side: print a JSON line per mark while the sweeps run."""
    sys.path.insert(0, src)
    from svtkit import cli

    def mark(stage: str, **where) -> None:
        rss, peak = rss_mb()
        print(json.dumps(dict(stage=stage, rss_mb=rss, maxrss_mb=peak,
                              **where)), flush=True)

    class Sink:
        """run_sweep flushes once after its header, then once per cell."""

        def __init__(self, **where) -> None:
            self.where, self.flushes = where, 0

        def write(self, text: str) -> int:
            return len(text)

        def flush(self) -> None:
            self.flushes += 1
            mark("truth" if self.flushes == 1 else "cell", **self.where)

    load = cli.load_dataset

    def load_then_mark(cfg):
        ds = load(cfg)
        mark("load", dataset=Path(cfg.dataset).name)
        return ds

    cli.load_dataset = load_then_mark
    for j in range(passes):
        for g, grid in enumerate(grids):
            cli.run_sweep(cli.ExperimentConfig(seed=j, **grid),
                          out=Sink(**{"pass": j, "grid": g}))
        mark("pass", **{"pass": j})


def run_side(label: str, src: Path, args: argparse.Namespace) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, __file__, "--child", str(src),
               "--passes", str(args.passes)]
    if args.scores:
        command += ["--scores", args.scores]
    done = subprocess.run(command, env=env, check=True, capture_output=True,
                          text=True)
    marks = [json.loads(line) for line in done.stdout.splitlines()]
    for m in marks:
        where = " ".join(f"{k}={v}" for k, v in m.items()
                         if k not in ("stage", "rss_mb", "maxrss_mb"))
        print(f"{label:8} {m['stage']:6} VmRSS {m['rss_mb']:8.1f} MB  "
              f"ru_maxrss {m['maxrss_mb']:8.1f} MB  {where}", file=sys.stderr)
    return {"side": label, "src": str(src),
            "max_rss_mb": {stage: max(m["rss_mb"] for m in marks
                                      if m["stage"] == stage)
                           for stage in STAGES},
            "maxrss_mb": marks[-1]["maxrss_mb"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="this side's checkout (default: this one)")
    parser.add_argument("--against", default=None,
                        help="a second checkout, run in its own process")
    parser.add_argument("--scores", default=None,
                        help="run perfbench's sweep-1e6 grid over this "
                             "scores file instead")
    parser.add_argument("--passes", type=int, default=2,
                        help="sweep passes per side (default 2)")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.scores and not Path(args.scores).is_file():
        parser.error(f"no scores file at {args.scores}")
    grids = [scores_grid(args.scores)] if args.scores else list(GRIDS)
    if args.child:
        child(args.child, grids, args.passes)
        return 0
    sides = [("src", package_dir(args.src))]
    if args.against:
        sides.append(("against", package_dir(args.against)))
    results = [run_side(label, src, args) for label, src in sides]
    report = {"scores": args.scores, "passes": args.passes,
              "results": results}
    if args.against:
        new, base = (r["maxrss_mb"] for r in results)
        report["maxrss_change_vs_against"] = round(new / base - 1, 4)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
